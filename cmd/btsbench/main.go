// Command btsbench checks the paper's claims: it measures every row of
// internal/claims over one seeded corpus and prints paper vs measured as a
// markdown table with its footnotes, the block EXPERIMENTS.md carries. It
// exits 1 when a claim fails to hold and 2 on a name -only cannot match.
//
//	btsbench [-quick] [-seed N] [-workers 0] [-only fig4,sec5.3,fig20.ping]
//
//lint:allow walltime reports real elapsed time on stderr
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/claims"
)

func main() {
	quick := flag.Bool("quick", false, "reduced scale: 150k records, 40 pairs and 20 groups per technology, 3 days")
	seed := flag.Int64("seed", 1, "corpus seed")
	workers := flag.Int("workers", 0, "corpus generation workers (0 = GOMAXPROCS); the output is worker-invariant")
	only := flag.String("only", "", "comma-separated row IDs or figure keys (e.g. fig4,sec5.3,fig20.ping)")
	flag.Parse()
	rows, err := claims.Select(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "btsbench:", err)
		os.Exit(2)
	}
	scale := claims.Full
	if *quick {
		scale = claims.Quick
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	start := time.Now()
	failed, err := claims.NewCorpus(ctx, scale, *seed, *workers).Run(os.Stdout, rows)
	stop()
	fmt.Fprintf(os.Stderr, "%d rows, %d failed %v, in %v\n", len(rows), len(failed), failed, time.Since(start).Round(time.Millisecond))
	if err != nil {
		fmt.Fprintln(os.Stderr, "btsbench:", err)
	}
	if err != nil || len(failed) > 0 {
		os.Exit(1)
	}
}
