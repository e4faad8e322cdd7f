package twsim

import (
	"fmt"
	"log"
	"sync/atomic"
)

// requestIDs is the process-wide query ID source. IDs are unique across
// every database in the process (single and sharded), so a slow-query log
// line can be joined unambiguously with the response carrying the same ID.
var requestIDs atomic.Uint64

// nextRequestID returns the next process-unique query identifier (never 0).
func nextRequestID() uint64 { return requestIDs.Add(1) }

// slowLogger resolves the destination of slow-query lines.
func (o Options) slowLogger() *log.Logger {
	if o.SlowQueryLogger != nil {
		return o.SlowQueryLogger
	}
	return log.Default()
}

// logSlowQuery emits one line when a query's wall time reached
// Options.SlowQueryThreshold (0 disables logging). The line is a flat
// key=value record — stable keys, one query per line — so it greps and
// parses without a log pipeline:
//
//	twsim: slow query kind=search request_id=17 qlen=128 epsilon=0.25 band=0
//	  wall=120ms filter=8ms refine=112ms candidates=140 results=3 dtw=41
//	  pruned_paa=0 pruned_keogh=90 pruned_corridor=9
//
// kind is "search" or "knn", followed after qlen by the kind's parameters
// ("epsilon=… band=…" or "k=… band=…"); request_id matches the
// Result.RequestID returned to the caller. The line is formatted only once
// the query is known to be slow.
func (o Options) logSlowQuery(c queryCall, requestID uint64, stats QueryStats) {
	if o.SlowQueryThreshold <= 0 || stats.Wall < o.SlowQueryThreshold {
		return
	}
	kind, param := "knn", fmt.Sprintf("k=%d band=%d", c.k, c.band)
	if c.family == 'r' {
		kind, param = "search", fmt.Sprintf("epsilon=%g band=%d", c.epsilon, c.band)
	}
	o.slowLogger().Printf("twsim: slow query kind=%s request_id=%d qlen=%d %s wall=%s filter=%s refine=%s candidates=%d results=%d dtw=%d pruned_paa=%d pruned_keogh=%d pruned_corridor=%d",
		kind, requestID, len(c.query), param, stats.Wall, stats.FilterWall, stats.RefineWall,
		stats.Candidates, stats.Results, stats.DTWCalls,
		stats.LBPAAPruned, stats.LBKeoghPruned, stats.CorridorPruned)
}
