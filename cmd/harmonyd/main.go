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
// The session table is sharded so many tenants dispatch without
// contending on one lock, and one port speaks both wire
// protocols: the JSON line protocol and the pipelined binary frame
// protocol, distinguished by the first byte each connection sends.
//
// Usage:
//
//	harmonyd [-addr host:port] [-quiet] [-cache file]
//	         [-session-timeout d] [-report-timeout d] [-max-reissues n]
//	         [-stats-interval d]
//
// Sessions that register with the async flag run the pipelined
// dispatch: the server keeps a bounded window of candidates in flight
// per session and commits results to the search strategy in issue
// order, so concurrent clients are never parked behind a round
// barrier. A session that chooses no window depth gets the engine's
// default.
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
	sessionTimeout := fs.Duration("session-timeout", 0, "garbage-collect sessions idle for this long (0 = never)")
	reportTimeout := fs.Duration("report-timeout", 0, "re-issue configurations whose reports are overdue by this much (0 = wait forever)")
	maxReissues := fs.Int("max-reissues", 0, "straggler re-issues before a configuration is forfeited (0 = default)")
	statsInterval := fs.Duration("stats-interval", 0, "dump server counters (and apply deadlines) this often (0 = only on shutdown)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits, Parse never returns an error

	s := server.New()
	if *quiet {
		s.Logf = func(string, ...any) {}
	}
	s.SessionTimeout = *sessionTimeout
	s.ReportTimeout = *reportTimeout
	s.MaxReissues = *maxReissues

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
