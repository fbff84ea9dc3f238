package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"time"

	"ctdf"
)

// cmdTop is a live telemetry view: it executes the workload on the
// machine engine in a background loop — the registry accumulates across
// iterations — and repaints the phase breakdown and lane → shard
// traffic matrix at every -refresh tick, the way `top` repaints process
// state. It exits after -duration (0 = until ctrl-c), leaving the final
// table on screen.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	pf := addProgramFlags(fs)
	mf := addMachineFlags(fs)
	refresh := fs.Duration("refresh", 500*time.Millisecond, "repaint interval")
	duration := fs.Duration("duration", 10*time.Second, "how long to keep running (0 = until ctrl-c)")
	metrics := fs.String("metrics", "", "also serve OpenMetrics at this address while running")
	fs.Parse(args)
	d, err := pf.dataflow(false)
	if err != nil {
		return err
	}
	cfg, err := mf.config()
	if err != nil {
		return err
	}
	reg := ctdf.NewTelemetry()
	cfg.Telemetry = reg
	if *metrics != "" {
		srv, err := reg.Serve(*metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics\n", srv.Addr())
	}

	// The runner loops the workload until told to stop; each iteration
	// is a fresh simulation feeding the same registry, so the view shows
	// live accumulating totals. runErr carries the first failure out.
	stop := make(chan struct{})
	idle := make(chan struct{})
	var iters atomic.Int64
	var runErr error
	go func() {
		defer close(idle)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.Run(cfg); err != nil {
				runErr = err
				return
			}
			iters.Add(1)
		}
	}()

	intr := make(chan os.Signal, 1)
	signal.Notify(intr, os.Interrupt)
	defer signal.Stop(intr)
	var deadline <-chan time.Time
	if *duration > 0 {
		deadline = time.After(*duration)
	}
	if *refresh <= 0 {
		*refresh = 500 * time.Millisecond
	}
	tick := time.NewTicker(*refresh)
	defer tick.Stop()

	paint := func(clear bool) {
		if clear {
			// Home the cursor and wipe the previous frame.
			fmt.Print("\x1b[H\x1b[2J")
		}
		fmt.Printf("ctdf top — schema %s, %d worker(s), %d iteration(s)\n\n", *pf.schema, cfg.Workers, iters.Load())
		fmt.Print(reg.Snapshot().PhaseTable())
	}
	running := true
	for running {
		select {
		case <-tick.C:
			paint(true)
		case <-deadline:
			running = false
		case <-intr:
			running = false
		case <-idle:
			running = false
		}
	}
	close(stop)
	<-idle
	paint(false)
	return runErr
}
