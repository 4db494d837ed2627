// Package profile starts the CPU and heap profiles the command-line
// tools write on request.
package profile

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpu and arranges a heap snapshot
// into mem; an empty name skips that profile. The returned stop
// finalises both and must run once, when the profiled work is done.
func Start(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialise final live-set statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
