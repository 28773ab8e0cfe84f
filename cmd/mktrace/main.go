// Command mktrace hand-crafts a work load with the probabilistic
// generator and writes it as a trace file for later replay.
//
//	mktrace -profile 1b -duration 30m -o trace1b.tr
//	mktrace -profile 3 -format coda -o compile.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/trace"
)

func main() {
	var (
		profile  = flag.String("profile", "1a", "work-load profile: 1a 1b 2a 2b 3 4 5")
		duration = flag.Duration("duration", 10*time.Minute, "trace duration")
		seed     = flag.Int64("seed", 1996, "deterministic seed")
		zipf     = flag.Float64("zipf", 0, "Zipf exponent of file popularity (> 1; 0 keeps the profile default 1.2); larger values concentrate traffic on fewer hot files, exercising hot/cold placement across volume arrays")
		format   = flag.String("format", "sprite", "output format: sprite (binary) or coda (text)")
		out      = flag.String("o", "", "output path (default stdout)")
		summary  = flag.Bool("summary", false, "print an op-count summary to stderr")
	)
	flag.Parse()

	p, ok := trace.Profiles()[*profile]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown profile %q (have %v)\n", *profile, trace.ProfileNames())
		os.Exit(2)
	}
	if *zipf != 0 {
		if *zipf <= 1 {
			fmt.Fprintf(os.Stderr, "-zipf must be > 1 (got %v)\n", *zipf)
			os.Exit(2)
		}
		p.ZipfS = *zipf
	}
	recs := trace.Generate(p, *seed, *duration)

	codec, ok := trace.NewFormat(*format)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w = f
	}
	err := codec.Write(w, recs)
	if w != os.Stdout {
		// A failed close can lose the file's tail.
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *summary {
		fmt.Fprintf(os.Stderr, "%d records: %v\n", len(recs), trace.Summary(recs))
	}
}
