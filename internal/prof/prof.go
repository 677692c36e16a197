// Package prof wires Go's stdlib profilers into the simulator binaries:
// pprof CPU/heap profiles behind -cpuprofile/-memprofile flags, a
// net/http/pprof listener for poking at a live long-running sweep, and the
// process's peak resident set size for run summaries. Everything here is
// flag-gated and costs nothing when unused.
package prof

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"
)

// Session holds the profiling state opened by Start; Stop finalizes it.
// The zero Session is valid and Stop on it is a no-op, so callers can
// unconditionally defer Stop.
type Session struct {
	cpuFile *os.File
	memPath string
	ln      net.Listener
}

// Options selects which profilers Start enables; empty fields are off.
type Options struct {
	// CPUProfile is the output path of a pprof CPU profile covering
	// Start..Stop.
	CPUProfile string
	// MemProfile is the output path of a heap profile written at Stop
	// (after a forced GC, so it reflects live objects).
	MemProfile string
	// HTTPAddr, e.g. "localhost:6060", serves net/http/pprof for live
	// inspection (goroutine dumps, 30s CPU captures) of a running sweep.
	HTTPAddr string
}

// Start enables the requested profilers. The returned Session must be
// Stopped (typically deferred) — an unmatched CPU profile start truncates
// the output file. Errors report which profiler failed; on error no
// profiler is left running.
func Start(o Options) (*Session, error) {
	s := &Session{memPath: o.MemProfile}
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		s.cpuFile = f
	}
	if o.HTTPAddr != "" {
		ln, err := net.Listen("tcp", o.HTTPAddr)
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("pprof-http: %w", err)
		}
		s.ln = ln
		go http.Serve(ln, nil) //nolint:errcheck // dies with the process
	}
	return s, nil
}

// Stop finalizes the session: the CPU profile is flushed and closed, the
// heap profile written, the HTTP listener shut. Safe on a nil or zero
// Session and idempotent.
func (s *Session) Stop() error {
	if s == nil {
		return nil
	}
	var first error
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := s.cpuFile.Close(); err != nil {
			first = fmt.Errorf("cpuprofile: %w", err)
		}
		s.cpuFile = nil
	}
	if s.memPath != "" {
		if err := writeHeapProfile(s.memPath); err != nil && first == nil {
			first = err
		}
		s.memPath = ""
	}
	if s.ln != nil {
		s.ln.Close()
		s.ln = nil
	}
	return first
}

// Addr reports the HTTP listener's bound address ("" when not serving) —
// useful with ":0" test listeners.
func (s *Session) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// writeHeapProfile GCs and dumps live-object heap state to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC() // materialize recently freed memory in the profile
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
