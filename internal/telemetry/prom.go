package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// WritePrometheus exports the session's event and drop counters in the
// Prometheus text exposition format (one series per PE via the pe
// label). The counters are atomics, so this is safe to call while the
// world is running; only ring exports need quiescence. Latency
// histograms live in the flight recorder (recorder.WritePrometheus).
func (c *Collector) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "# HELP lamellar_events_total Lifecycle events recorded, by kind (pre-ring, survives wraparound).\n")
	fmt.Fprintf(bw, "# TYPE lamellar_events_total counter\n")
	for pe := 0; pe < c.npes; pe++ {
		for k := 0; k < numEventKinds; k++ {
			if n := c.evCounts[pe][k].Load(); n > 0 {
				fmt.Fprintf(bw, "lamellar_events_total{pe=\"%d\",kind=\"%s\"} %d\n", pe, EventKind(k), n)
			}
		}
	}

	fmt.Fprintf(bw, "# HELP lamellar_trace_dropped_total Events dropped by ring-writer contention.\n")
	fmt.Fprintf(bw, "# TYPE lamellar_trace_dropped_total counter\n")
	for pe := 0; pe < c.npes; pe++ {
		fmt.Fprintf(bw, "lamellar_trace_dropped_total{pe=\"%d\"} %d\n", pe, c.Dropped(pe))
	}

	return bw.Flush()
}
