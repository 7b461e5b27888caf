package sim

// Machine describes the memory system and processor complement the cost
// model charges for. KSR1 is the paper's machine (§5.1-5.2): 72 processors,
// of which 70 could be reserved for experiments, each with a 32 MB Allcache
// local cache. The Allcache system is a hardware-managed COMA: memory is
// physically distributed over the local caches and virtually shared, and
// touching a remote item migrates its cache line at roughly 6x the cost of a
// local access. Each processor also has a small fast subcache; a fragment
// must be "relatively small compared to the size of a local cache" to
// benefit from caching.
type Machine struct {
	// UsableProcessors is the number of processors actually reservable.
	UsableProcessors int
	// EffectiveLocalBytes is the portion of the local cache realistically
	// available to one thread's working set; below this the paper observed
	// that "a local execution cannot be obtained" (under 5 threads for the
	// 200K selection, i.e. ~8.3 MB of relation data per thread).
	EffectiveLocalBytes int64
	// SubcacheBytes is the fast per-processor subcache; fragments that fit
	// it probe at full speed, larger ones pay the locality penalty.
	SubcacheBytes int64
	// CacheLineBytes is the Allcache transfer granularity (128-byte
	// subpages).
	CacheLineBytes int
	// LocalLineAccess is the virtual-time cost of touching a local line.
	LocalLineAccess float64
	// RemoteFactor is the remote/local access cost ratio ("the access to a
	// remote cache line is 6 times that of the access to a local cache
	// line").
	RemoteFactor float64
}

// KSR1 returns the paper's machine. Virtual-time constants are calibrated so
// the Figure 8/9 selection experiment lands on the reported ~4% remote
// overhead.
func KSR1() Machine {
	return Machine{
		UsableProcessors:    70,
		EffectiveLocalBytes: 8 << 20,
		SubcacheBytes:       100 << 10,
		CacheLineBytes:      128,
		LocalLineAccess:     0.55e-6,
		RemoteFactor:        6,
	}
}

// linesFor returns the number of cache lines covering n bytes.
func (m Machine) linesFor(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	return (bytes + m.CacheLineBytes - 1) / m.CacheLineBytes
}

// remoteExtra is the extra virtual time paid when a tuple of tupleBytes must
// be shipped from a remote local cache instead of being resident: (factor-1)
// times the local line cost, per line.
func (m Machine) remoteExtra(tupleBytes int) float64 {
	return float64(m.linesFor(tupleBytes)) * m.LocalLineAccess * (m.RemoteFactor - 1)
}

// localResident reports whether a per-thread working set of the given size
// can stay in the thread's local cache, i.e. whether a "local execution" is
// obtainable (§5.2: below 5 threads the 200K selection could not run local).
func (m Machine) localResident(workingSetBytes int64) bool {
	return workingSetBytes <= m.EffectiveLocalBytes
}

// localityPenalty returns the fraction of probe accesses that miss the fast
// subcache when randomly touching a fragment of fragBytes: 0 when the
// fragment fits the subcache, approaching 1 as the fragment grows. This is
// the §5.2 observation that "each bucket of a relation must be relatively
// small compared to the size of a local cache in order to benefit from
// caching" — the mechanism that keeps raising the useful degree of
// partitioning in Figure 17.
func (m Machine) localityPenalty(fragBytes int64) float64 {
	if fragBytes <= m.SubcacheBytes {
		return 0
	}
	return 1 - float64(m.SubcacheBytes)/float64(fragBytes)
}
