package main

import (
	"context"
	"fmt"
	"time"
)

// twin runs the workload's statement in process, as a child span of root:
// what the operation costs without HTTP, the encoders and the client.
func (w *serveWorkload) twin(ctx context.Context, root *liveSpan, args ...any) (time.Duration, int64, error) {
	sp := root.child("dbs3.stmt_query")
	defer sp.end()
	t0 := time.Now()
	rows, err := w.stmt.QueryContext(ctx, args...)
	if err != nil {
		return 0, 0, err
	}
	defer rows.Close()
	var n int64
	for rows.Next() {
		n++
	}
	return time.Since(t0), n, rows.Err()
}

// layers runs, with nothing else going on, each operation over HTTP followed
// by its in-process twin, and then the probes of the layers this workload
// leans on.
func (w *serveWorkload) layers(ctx context.Context, tr *tracer, m metrics) error {
	classes := w.classes()
	reps := 40
	if w.wide {
		reps = 10
	}
	overHTTP := make([][]float64, len(classes))
	var inProcess []float64
	var twinRows int64
	var statsBefore [2]struct{ bytes, rows int64 }
	client := w.conns[0].client
	for class := range classes {
		if w.wide {
			st, err := client.Stats(ctx)
			if err != nil {
				return err
			}
			statsBefore[class].bytes, statsBefore[class].rows = st.BytesWritten, st.RowsStreamed
		}
		for i := 0; i < reps; i++ {
			// Client 0's operation index with this class that skips the checksum.
			idx := (i*checksumEach+1)*len(classes) + class
			root := tr.op()
			res := w.op(ctx, 0, idx, 0, root)
			if res.err != nil {
				root.end()
				return res.err
			}
			if res.class != class {
				root.end()
				return fmt.Errorf("%s layers: operation %d has class %d, want %d", w.name(), idx, res.class, class)
			}
			overHTTP[class] = append(overHTTP[class], ms(res.latency))
			if w.wide || class == 0 {
				args := []any{w.key(0, idx)}
				if w.wide {
					args = []any{wideRows}
				}
				d, n, err := w.twin(ctx, root, args...)
				if err != nil {
					root.end()
					return err
				}
				inProcess = append(inProcess, ms(d))
				twinRows += n
			}
			root.end()
		}
		if w.wide {
			st, err := client.Stats(ctx)
			if err != nil {
				return err
			}
			if rows := st.RowsStreamed - statsBefore[class].rows; rows > 0 {
				m["server.bytes_per_row."+classes[class]] = float64(st.BytesWritten-statsBefore[class].bytes) / float64(rows)
			}
		}
	}

	if w.wide {
		m["dbs3.cursor_ns_per_row"] = median(inProcess) * 1e6 * float64(len(inProcess)) / float64(twinRows)
		if err := probeWire(ctx, m); err != nil {
			return err
		}
		return probeOperators(ctx, m, "filter", "store")
	}
	m["server.fixed_overhead_us"] = (median(overHTTP[0]) - median(inProcess)) * 1000
	m["server.exec_vs_query_ratio"] = median(overHTTP[0]) / median(overHTTP[1])
	if err := probePlanning(m); err != nil {
		return err
	}
	if err := probeCoreFixed(ctx, m); err != nil {
		return err
	}
	return probeRuntime(ctx, m)
}
