package recorder

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// promNames are the Prometheus series names of the recorder histograms
// (each exported as lamellar_<name>_seconds).
var promNames = [NumHists]string{"am_round_trip", "agg_flush_interval", "task_queue_wait", "wire_rtt"}

// WritePrometheus exports the recorder's histograms in the Prometheus
// text exposition format: one series per PE via the pe label, cumulative
// le buckets in seconds (the Prometheus convention). The histograms are
// atomics, so this is safe to call while the world is running.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for id := HistID(0); id < NumHists; id++ {
		name := "lamellar_" + promNames[id] + "_seconds"
		fmt.Fprintf(bw, "# HELP %s Latency histogram (log2 ns buckets).\n", name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		for pe := range r.pes {
			h := r.pes[pe].Hist(id)
			buckets := h.Buckets()
			var cum uint64
			for i, n := range buckets {
				cum += n
				if n == 0 && i != len(buckets)-1 {
					continue // keep the dump compact: only buckets that moved
				}
				fmt.Fprintf(bw, "%s_bucket{pe=\"%d\",le=\"%g\"} %d\n",
					name, pe, float64(telemetry.BucketUpper(i))/1e9, cum)
			}
			fmt.Fprintf(bw, "%s_bucket{pe=\"%d\",le=\"+Inf\"} %d\n", name, pe, h.Count())
			fmt.Fprintf(bw, "%s_sum{pe=\"%d\"} %g\n", name, pe, float64(h.Sum())/1e9)
			fmt.Fprintf(bw, "%s_count{pe=\"%d\"} %d\n", name, pe, h.Count())
		}
	}
	return bw.Flush()
}
