package sampling

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/noreba-sim/noreba/internal/emulator"
)

// TestBuildPlanCancel: a plan build cancelled mid-build — after profiling,
// as its pilot and fingerprint replays start — fails with an error wrapping
// context.Canceled, and the fingerprint replay stops with it instead of
// draining the stream: no goroutine outlives the build.
func TestBuildPlanCancel(t *testing.T) {
	res := compileWorkload(t, "dijkstra", 4)
	before := runtime.NumGoroutine()
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelWhen{Context: inner, cancel: cancel, when: func() bool { return true }}
	if _, err := BuildPlanContext(ctx, res.Image, res.Meta, 1<<20, Default()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v, want an error wrapping context.Canceled", err)
	}
	if !ctx.fired.Load() {
		t.Fatal("the build never polled its context")
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the cancelled build (%d before)", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}

	// The fingerprint replay reports the cancellation itself, not just the
	// pilot it runs beside.
	prof := BuildProfile(emulator.NewSource(emulator.New(res.Image), 1<<20), DefaultIntervalLen)
	view := emulator.NewBroadcast(emulator.NewSource(emulator.New(res.Image), 1<<20), 0).View()
	defer view.Close()
	if _, err := fingerprintDims(inner, view, prof); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fingerprint returned %v, want an error wrapping context.Canceled", err)
	}
}
