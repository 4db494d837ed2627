// Command harmonyd runs the Active Harmony tuning server for on-line
// tuning: applications connect over TCP, register their tunable
// parameters, then alternate fetching configurations and reporting
// measured performance while they run.
//
// The server tolerates misbehaving clients: -session-timeout leases
// each session and garbage-collects the ones every client abandoned,
// and -report-timeout bounds how long an outstanding configuration
// waits for straggler reports before being re-issued (at most
// -max-reissues times) and then forfeited. -stats-interval
// periodically applies the deadlines and dumps the operational
// counters. On SIGINT or SIGTERM the server stops serving, writes a
// final dump and saves the -cache file.
//
// The session table is sharded (-shards) so many tenants dispatch
// without contending on one lock, and one port speaks both wire
// protocols: the JSON line protocol and the pipelined binary frame
// protocol, distinguished by the first byte each connection sends.
//
// With -surrogate the server screens proposals of sessions that
// registered with the surrogate flag through the analytic performance
// models of the case-study workloads: confidently-worse configurations
// are answered to the search at their predicted value without being
// handed to any client, and best replies always come from genuine
// measurements. -surrogate-keep sets the default fraction of each
// round that is actually evaluated.
//
// Usage:
//
//	harmonyd [-addr host:port] [-quiet] [-cache file] [-shards n]
//	         [-session-timeout d] [-report-timeout d] [-max-reissues n]
//	         [-stats-interval d] [-surrogate] [-surrogate-keep f]
//	         [-async-depth n]
//
// Sessions that register with the async flag run the pipelined
// dispatch: the server keeps a bounded window of candidates in flight
// per session and commits results to the search strategy in issue
// order, so concurrent clients are never parked behind a round
// barrier. -async-depth sets the default window for sessions that do
// not choose their own.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"harmony/internal/history"
	"harmony/internal/server"
	"harmony/internal/surrogate"
)

func main() {
	listening := func(addr net.Addr) { fmt.Printf("harmonyd: listening on %s\n", addr) }
	if err := run(os.Args[1:], listening); err != nil {
		log.Fatalf("harmonyd: %v", err)
	}
}

// run is the server's whole life: it serves until SIGINT or SIGTERM
// (what a batch system sends) and then shuts down in the order that
// loses nothing. listening is told the bound address once the server
// accepts connections.
func run(args []string, listening func(net.Addr)) error {
	fs := flag.NewFlagSet("harmonyd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7077", "listen address")
	quiet := fs.Bool("quiet", false, "suppress per-session logging")
	cachePath := fs.String("cache", "", "persistent evaluation cache file (JSON); answers repeated configurations without re-running clients")
	sessionTimeout := fs.Duration("session-timeout", 0, "garbage-collect sessions idle longer than this (0 = never)")
	reportTimeout := fs.Duration("report-timeout", 0, "re-issue configurations whose reports are overdue by this much (0 = wait forever)")
	maxReissues := fs.Int("max-reissues", 0, "straggler re-issues before a configuration is forfeited (0 = default)")
	statsInterval := fs.Duration("stats-interval", 0, "dump server counters (and apply deadlines) this often (0 = only on shutdown)")
	shards := fs.Int("shards", 0, "session-table shards; higher values reduce lock contention under many tenants (0 = default)")
	asyncDepth := fs.Int("async-depth", 0, "default in-flight candidate window for async-registered sessions (0 = built-in default)")
	surrogateOn := fs.Bool("surrogate", false, "screen proposals of surrogate-flagged sessions with the analytic models of the case-study workloads")
	surrogateKeep := fs.Float64("surrogate-keep", 0, "default fraction of each proposal round surrogate sessions actually evaluate, 0 < keep <= 1 (0 = built-in default)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits, Parse never returns an error

	s := server.New()
	if *quiet {
		s.Logf = func(string, ...any) {}
	}
	s.SessionTimeout = *sessionTimeout
	s.ReportTimeout = *reportTimeout
	s.MaxReissues = *maxReissues
	s.Shards = *shards
	s.AsyncDepth = *asyncDepth
	if *surrogateOn {
		s.Surrogate = surrogate.For
		s.SurrogateKeep = *surrogateKeep
	}

	var evalCache *history.EvalCache
	if *cachePath != "" {
		var err error
		evalCache, err = history.OpenEvalCache(*cachePath)
		if err != nil {
			return err
		}
		s.Cache = evalCache
		fmt.Printf("harmonyd: evaluation cache %s (%d entries)\n", *cachePath, evalCache.Len())
	}

	if *statsInterval > 0 {
		// Deadlines are otherwise applied lazily on client traffic;
		// the ticker keeps abandoned sessions and stalled rounds
		// progressing through quiet periods, then dumps the counters.
		go func() {
			for range time.Tick(*statsInterval) {
				s.ExpireNow()
				s.WriteStats(os.Stderr)
				if evalCache != nil {
					if err := evalCache.Save(); err != nil {
						log.Printf("harmonyd: %v", err)
					}
				}
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	listening(ln.Addr())
	select {
	case err := <-served:
		return err
	case <-sigc:
	}
	log.Println("harmonyd: shutting down")
	// Close first: it returns once every connection handler has, so
	// every report the server acknowledged is in the cache before the
	// cache is saved.
	s.Close()
	<-served
	s.WriteStats(os.Stderr)
	if evalCache != nil {
		return evalCache.Save()
	}
	return nil
}
