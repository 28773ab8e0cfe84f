package examples

import (
	"fmt"
	"log"
	"time"

	"repro/internal/experiments"
)

// Example_writesaving reruns the paper's central experiment at bench scale:
// the same trace replayed under the Unix 30-second-update policy,
// the UPS write-saving policy, and the two NVRAM policies, printing
// a Figure-5 style comparison.
func Example_writesaving() {
	scale := experiments.QuickScale()
	scale.Duration = 3 * time.Minute
	fmt.Printf("replaying trace 1a for %v under four flush policies...\n\n", scale.Duration)

	runs, err := experiments.RunTraceWith(experiments.Parallel(), scale, "1a", 1996)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %12s %10s %10s %8s\n", "policy", "mean", "flushed", "saved", "readhit")
	for _, r := range runs {
		fmt.Printf("%-16s %12s %10d %10d %7.1f%%\n",
			r.Policy,
			r.Report.MeanLatency().Round(time.Microsecond),
			r.Report.Flushed,
			r.Report.Saved,
			100*r.Report.ReadHit)
	}
	fmt.Println()

	// The paper's conclusion, verified live.
	byName := map[string]time.Duration{}
	for _, r := range runs {
		byName[r.Policy] = r.Report.MeanLatency()
	}
	if byName["ups"] < byName["writedelay"] {
		fmt.Println("as in the paper: the UPS write-saving policy beats the 30-second-update policy —")
		fmt.Println("delaying writes keeps disk queues short even though cache hit rates drop.")
	} else {
		fmt.Println("note: at this tiny scale the UPS advantage did not materialize; try a longer duration.")
	}
	// Output:
	// replaying trace 1a for 3m0s under four flush policies...
	//
	// policy                   mean    flushed      saved  readhit
	// writedelay            1.707ms        183        136    62.1%
	// ups                   1.659ms          0        215    62.1%
	// nvram-whole            1.65ms         53        205    62.1%
	// nvram-partial         1.641ms         47        205    62.1%
	//
	// as in the paper: the UPS write-saving policy beats the 30-second-update policy —
	// delaying writes keeps disk queues short even though cache hit rates drop.
}
