package cluster

import (
	"context"
	"errors"
	"fmt"

	"dbs3/internal/server"
)

// NodeError names the worker behind a fan-out failure. The message keeps
// the historical "cluster: node <name>: ..." shape, which the HTTP front
// end maps to 502 and operators grep for.
type NodeError struct {
	Node string
	Err  error
}

func (e *NodeError) Error() string { return fmt.Sprintf("cluster: node %s: %v", e.Node, e.Err) }
func (e *NodeError) Unwrap() error { return e.Err }

// ShardError reports that a shard's subquery failed on every replica tried;
// Err is the last replica's NodeError.
type ShardError struct {
	Shard    int
	Replicas int // replicas tried before giving up
	Err      error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d failed on all %d replicas tried: %v", e.Shard, e.Replicas, e.Err)
}
func (e *ShardError) Unwrap() error { return e.Err }

// replicaFault classifies an error as a fault of the replica that served
// it — the signal that failing over to a sibling could succeed. Connection
// failures, header timeouts, truncated or reset streams, and worker 5xx
// responses are faults; cancellation is the caller's doing, and a 4xx would
// fail identically on every replica (bad SQL, wrong arity), so neither
// triggers failover. A header timeout is checked first: the client enforces
// it by cancelling the request, so a *server.TimeoutError wraps
// context.Canceled.
func replicaFault(err error) bool {
	if err == nil {
		return false
	}
	var te *server.TimeoutError
	if errors.As(err, &te) {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *server.StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return true
}
