package main

import (
	"os"
	"testing"
	"time"
)

// The sampler sees memory the process touches while it runs.
func TestRSSSamplerSeesTouchedMemory(t *testing.T) {
	base := rssMB()
	if base == 0 {
		t.Skip("/proc/self/statm unreadable")
	}
	s := sampleRSS()
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	peak := s.end()
	if peak < base+48 {
		t.Fatalf("peak %.1f MB, want at least %.1f MB after touching 64 MB", peak, base+48)
	}
	buf[0] = 0 // keep buf live until the sampler has stopped
}

// cpuSeconds reads this process's CPU time, which grows while it spins.
func TestCPUSecondsGrows(t *testing.T) {
	pid := os.Getpid()
	before, err := cpuSeconds(pid)
	if err != nil {
		t.Skipf("/proc unreadable: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for after := before; after < before+0.05; {
		if time.Now().After(deadline) {
			t.Fatalf("CPU time %g s after spinning 5 s from %g s", after, before)
		}
		for i := 0; i < 1<<20; i++ {
			calibSink += uint64(i)
		}
		if after, err = cpuSeconds(pid); err != nil {
			t.Fatal(err)
		}
	}
}
