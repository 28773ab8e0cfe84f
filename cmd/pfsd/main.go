// Command pfsd runs the on-line Pegasus file system: a real cache,
// a segmented LFS on a Unix file acting as the disk (or a striped
// array of them), and the NFS-like network front-end.
//
//	pfsd -image /var/tmp/pfs.img -blocks 65536 -addr 127.0.0.1:2049
//	pfsd -image /var/tmp/pfs.img -volumes 4 -placement striped
//
// With -volumes N the server runs on an N-wide volume array backed
// by images <image>.v0 .. <image>.v(N-1); the on-image label makes a
// reopen with different -volumes/-placement/-stripe fail loudly.
// The mirrored and parity placements add redundancy: the array keeps
// serving reads and writes through a single member death and can
// rebuild the lost member online (pfs.Server.KillMember /
// RebuildMember / Scrub drive this programmatically).
//
// On SIGINT/SIGTERM the server drains: it stops accepting calls,
// lets in-flight NFS requests complete, syncs every volume, and only
// then exits. A second signal forces an immediate shutdown.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cache"
	"repro/internal/pfs"
)

func main() {
	var (
		image     = flag.String("image", "pfs.img", "backing image file (base name with -volumes > 1)")
		blocks    = flag.Int64("blocks", 16384, "per-volume size in 4KB blocks")
		volumes   = flag.Int("volumes", 1, "volume-array width: one image+driver+LFS stack per member")
		placement = flag.String("placement", "affinity", "array placement policy: affinity, striped, mirrored, or parity")
		stripe    = flag.Int("stripe", 8, "stripe/chunk width in 4KB blocks for striped and redundant placements")
		cacheB    = flag.Int("cache", 4096, "cache size in 4KB blocks")
		addr      = flag.String("addr", "127.0.0.1:20490", "listen address")
		admin     = flag.String("admin", "", "admin HTTP endpoint: /metrics, /healthz, /statusz, pprof (empty = disabled)")
		slowOp    = flag.Duration("slowop", 0, "slow-op log capture threshold (0 = default 100ms)")
		policy    = flag.String("policy", "ups", "flush policy: writedelay, ups, nvram-whole, nvram-partial")
		nvramKB   = flag.Int("nvram", 4096, "NVRAM size in KB for nvram policies")
		spares    = flag.Int("spares", 0, "hot-spare pool size: idle replacement member stacks pre-provisioned for promotion (redundant placements)")
		selfHeal  = flag.Bool("selfheal", false, "supervised self-healing: health monitor + automatic spare promotion and online rebuild on member death")
		healthInt = flag.Duration("healthint", 0, "health monitor sweep interval (0 = default)")
		statsOut  = flag.Bool("stats", false, "print statistics on shutdown")
	)
	flag.Parse()
	// Catch the signals before serving, so one that arrives while the
	// server starts up still drains it instead of killing the process.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	fc, ok := cache.FlushPolicy(*policy, *nvramKB/4)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}

	srv, err := pfs.Open(pfs.Config{
		Path:            *image,
		Blocks:          *blocks,
		Volumes:         *volumes,
		Placement:       *placement,
		StripeBlocks:    *stripe,
		CacheBlocks:     *cacheB,
		Flush:           fc,
		SlowOpThreshold: *slowOp,
		Spares:          *spares,
		SelfHeal:        *selfHeal,
		HealthInterval:  *healthInt,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bound, err := srv.ServeNFS(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	layoutName := srv.Vol.LayoutName()
	fmt.Printf("pfsd: serving volume 1 (%s, %d×%d blocks, layout %s, policy %s) on %s\n",
		*image, *volumes, *blocks, layoutName, fc.Name, bound)
	if *admin != "" {
		adminBound, err := srv.ServeAdmin(*admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("pfsd: admin endpoint (metrics, healthz, statusz, pprof) on http://%s\n", adminBound)
	}

	<-sig
	fmt.Println("pfsd: draining in-flight requests and syncing all volumes")
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown() }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	case <-sig:
		fmt.Fprintln(os.Stderr, "pfsd: second signal, forcing shutdown")
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	if *statsOut {
		fmt.Println(srv.Set.Render())
		// The clustering observability line: how many blocks each
		// device request carried, per member.
		for _, drv := range srv.Drivers {
			ds := drv.DriverStats()
			fmt.Printf("%s: %d requests, %.2f blocks/request\n",
				drv.Name(), ds.Requests(), ds.BlocksPerRequest())
		}
	}
}
