package prof

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

func TestStartStopWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	s, err := Start(Options{CPUProfile: cpu, MemProfile: mem})
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to write.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// Stop is idempotent.
	if err := s.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
}

func TestNilSessionStop(t *testing.T) {
	var s *Session
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPListener(t *testing.T) {
	s, err := Start(Options{HTTPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", s.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
}
