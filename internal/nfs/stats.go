package nfs

import (
	"repro/internal/stats"
)

// ServerStats is the NFS server's statistics plug-in: per-procedure
// call counts and latency (admission to reply, so pipeline queueing
// is included), non-OK replies, and the pipeline-depth distribution
// observed at each admission.
type ServerStats struct {
	Calls   *stats.Group
	Errors  *stats.Counter
	Depth   *stats.Histogram
	Latency [NumProcs]*stats.LogHistogram
}

func newServerStats() *ServerStats {
	st := &ServerStats{
		Calls:  stats.NewGroup("nfs.calls"),
		Errors: stats.NewCounter("nfs.errors"),
		Depth:  stats.NewHistogram("nfs.pipeline_depth", 0, 1, 2, 4, 8, 16, 32),
	}
	for i := 0; i < NumProcs; i++ {
		st.Calls.Member(procNames[i])
		st.Latency[i] = stats.NewLatencyHistogram("nfs.latency." + procNames[i])
	}
	return st
}
