// Shared profiling entry points. Every command registers the same three
// flags — -cpuprofile, -memprofile, -exectrace — through one Profiler, so
// profiling any command is uniform and the start/stop ordering (trace and
// CPU profile stopped before the heap snapshot) lives in one place. Its
// errors carry an "obs: " prefix, which the commands' stderr lines keep.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiler owns the profiling flag values and the open output files.
type Profiler struct {
	CPUPath   string
	MemPath   string
	TracePath string

	cpuFile   *os.File
	traceFile *os.File
}

// Register installs the shared profiling flags on fs.
func (p *Profiler) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUPath, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.MemPath, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&p.TracePath, "exectrace", "", "write a runtime execution trace to this file")
}

// Start begins whichever profiles were requested. On error everything
// already started is stopped, so a failed Start needs no Stop.
func (p *Profiler) Start() error {
	if p.CPUPath != "" {
		f, err := os.Create(p.CPUPath)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("obs: starting cpu profile: %w", err)
		}
		p.cpuFile = f
	}
	if p.TracePath != "" {
		f, err := os.Create(p.TracePath)
		if err != nil {
			p.stopCPU()
			return fmt.Errorf("obs: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			p.stopCPU()
			return fmt.Errorf("obs: starting execution trace: %w", err)
		}
		p.traceFile = f
	}
	return nil
}

func (p *Profiler) stopCPU() error {
	if p.cpuFile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := p.cpuFile.Close()
	p.cpuFile = nil
	return err
}

// Stop finishes every active profile: CPU profile and execution trace are
// flushed and closed, then the heap snapshot is written. Safe to call when
// nothing was started. The first failure wins.
func (p *Profiler) Stop() error {
	err := p.stopCPU()
	if p.traceFile != nil {
		trace.Stop()
		Close(p.traceFile, &err)
		p.traceFile = nil
	}
	if p.MemPath != "" {
		if herr := writeHeap(p.MemPath); err == nil {
			err = herr
		}
	}
	if err != nil {
		return fmt.Errorf("obs: stopping profiles: %w", err)
	}
	return nil
}

// writeHeap writes the heap profile to path, after a GC so it shows
// retained memory, not garbage.
func writeHeap(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer Close(f, &err)
	runtime.GC()
	return pprof.Lookup("heap").WriteTo(f, 0)
}
