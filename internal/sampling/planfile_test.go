package sampling

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/noreba-sim/noreba/internal/pipeline"
)

// allPolicies are the six commit policies of the paper's figures.
var allPolicies = []pipeline.PolicyKind{
	pipeline.InOrder, pipeline.NonSpecOoO, pipeline.Noreba,
	pipeline.IdealReconv, pipeline.SpecBR, pipeline.Spec,
}

// policyCfg mirrors the experiment runner's normalization: policies that do
// not consume compiler annotations run with free setup slots.
func policyCfg(pol pipeline.PolicyKind) pipeline.Config {
	cfg := pipeline.SkylakeConfig()
	cfg.Policy = pol
	if pol != pipeline.Noreba && pol != pipeline.IdealReconv {
		cfg.FreeSetup = true
	}
	return cfg
}

// statsJSON canonicalises a Stats for byte comparison.
func statsJSON(t testing.TB, st *pipeline.Stats) []byte {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEstimateConcurrentDeterminism: fanning the representative windows over
// a worker group must be invisible in the result — for every policy and
// workload, the concurrent estimate marshals to byte-identical JSON as the
// serial one. Run under -race this also proves the windows share nothing
// mutable (each clones the plan's warmed state and restores its own
// emulator).
func TestEstimateConcurrentDeterminism(t *testing.T) {
	workers := runtime.GOMAXPROCS(0) + 2 // oversubscribe: order scrambling costs nothing
	for _, wl := range []struct {
		name     string
		scaleDiv int
	}{
		{"CRC32", 2},
		{"dijkstra", 4},
		{"bzip2", 2},
	} {
		res := compileWorkload(t, wl.name, wl.scaleDiv)
		pl, err := BuildPlan(res.Image, res.Meta, 1<<20, Default())
		if err != nil {
			t.Fatal(err)
		}
		if pl.Full {
			t.Fatalf("%s degenerated to Full at scaleDiv %d — pick a bigger scale", wl.name, wl.scaleDiv)
		}
		for _, pol := range allPolicies {
			cfg := policyCfg(pol)
			serial, err := pl.EstimateContextN(context.Background(), cfg, res.Meta, 1)
			if err != nil {
				t.Fatal(err)
			}
			conc, err := pl.EstimateContextN(context.Background(), cfg, res.Meta, workers)
			if err != nil {
				t.Fatal(err)
			}
			if sj, cj := statsJSON(t, serial), statsJSON(t, conc); !bytes.Equal(sj, cj) {
				t.Errorf("%s under %v: concurrent estimate differs from serial:\nserial:     %s\nconcurrent: %s",
					wl.name, pol, sj, cj)
			}
		}
	}
}

// TestEstimateErrorProvenance: window errors must name the workload,
// representative interval and policy on their own, so callers never re-wrap.
func TestEstimateErrorProvenance(t *testing.T) {
	res := compileWorkload(t, "CRC32", 2)
	pl, err := BuildPlan(res.Image, res.Meta, 1<<20, Default())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = pl.EstimateContext(ctx, policyCfg(pipeline.Noreba), res.Meta)
	if err == nil {
		t.Fatal("cancelled estimate succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"sampling:", pl.Name, "interval", pipeline.Noreba.String()} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not name %q", msg, want)
		}
	}
}

// TestPlanFileRoundTrip: encode→load is the identity. The loaded plan must
// re-encode to the same bytes and estimate bit-identically to the original —
// a stored plan is the plan, not an approximation of it.
func TestPlanFileRoundTrip(t *testing.T) {
	res := compileWorkload(t, "dijkstra", 4)
	p := Default()
	pl, err := BuildPlan(res.Image, res.Meta, 1<<20, p)
	if err != nil {
		t.Fatal(err)
	}
	data := EncodePlan(pl)
	if again := EncodePlan(pl); !bytes.Equal(data, again) {
		t.Fatal("EncodePlan is not deterministic")
	}

	loaded, err := LoadPlan(data, res.Image, 1<<20, p)
	if err != nil {
		t.Fatal(err)
	}
	if re := EncodePlan(loaded); !bytes.Equal(data, re) {
		t.Fatalf("loaded plan re-encodes to %d bytes != original %d bytes", len(re), len(data))
	}
	if loaded.Full != pl.Full || len(loaded.Reps) != len(pl.Reps) {
		t.Fatalf("loaded plan shape %v/%d != built %v/%d", loaded.Full, len(loaded.Reps), pl.Full, len(pl.Reps))
	}

	for _, pol := range []pipeline.PolicyKind{pipeline.InOrder, pipeline.Noreba} {
		cfg := policyCfg(pol)
		want, err := pl.Estimate(cfg, res.Meta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Estimate(cfg, res.Meta)
		if err != nil {
			t.Fatal(err)
		}
		if wj, gj := statsJSON(t, want), statsJSON(t, got); !bytes.Equal(wj, gj) {
			t.Errorf("%v: loaded-plan estimate differs from built-plan estimate:\nbuilt:  %s\nloaded: %s", pol, wj, gj)
		}
	}

	key := PlanKey(res.ImageHash(), 1<<20, p)
	if len(key) != 64 {
		t.Fatalf("PlanKey %q is not sha256 hex", key)
	}
	if key != PlanKey(res.ImageHash(), 1<<20, p) {
		t.Fatal("PlanKey is not deterministic")
	}
}

// TestPlanFileV1BackwardCompat: the reader must load genuine v1 bytes (full
// snapshot maps) to exactly the plan the v2 delta bytes load to, and the
// content-store key must not move across the format bump — plans persisted
// before the delta encoding stay warm and stay correct.
func TestPlanFileV1BackwardCompat(t *testing.T) {
	res := compileWorkload(t, "dijkstra", 4)
	p := Default()
	pl, err := BuildPlan(res.Image, res.Meta, 1<<20, p)
	if err != nil {
		t.Fatal(err)
	}
	v1 := encodePlanAt(pl, 1)
	v2 := EncodePlan(pl)
	if bytes.Equal(v1, v2) {
		t.Fatal("v1 and v2 encodings are identical — the delta form is not being exercised")
	}
	if len(v2) >= len(v1) {
		t.Errorf("v2 delta encoding (%d bytes) is not smaller than v1 (%d bytes)", len(v2), len(v1))
	}

	fromV1, err := LoadPlan(v1, res.Image, 1<<20, p)
	if err != nil {
		t.Fatalf("loading v1 bytes: %v", err)
	}
	fromV2, err := LoadPlan(v2, res.Image, 1<<20, p)
	if err != nil {
		t.Fatalf("loading v2 bytes: %v", err)
	}
	// The v1 load holds full snapshot maps and the v2 load delta ones;
	// re-encoding canonicalises both, so byte equality here means the v1
	// full maps and the v2 deltas agree entry for entry.
	if !bytes.Equal(EncodePlan(fromV1), EncodePlan(fromV2)) {
		t.Fatal("plan loaded from v1 bytes differs from plan loaded from v2 bytes")
	}

	// The PlanKey tag is frozen: a format bump must not cold-start stores.
	key := PlanKey(res.ImageHash(), 1<<20, p)
	if got := planKeyTag; got != "noreba-plan-v1" {
		t.Fatalf("planKeyTag drifted to %q — this cold-starts every plan store", got)
	}
	if len(key) != 64 {
		t.Fatalf("PlanKey %q is not sha256 hex", key)
	}
}

// TestPlanFileStaleness: every way a stored plan can go stale — bumped
// format version, recompiled program, different stream bound or parameters,
// flipped bytes, truncation — must surface as a *FormatError (a miss to the
// caller), never as a silently-wrong plan or a panic.
func TestPlanFileStaleness(t *testing.T) {
	res := compileWorkload(t, "dijkstra", 4)
	other := compileWorkload(t, "CRC32", 2)
	p := Default()
	pl, err := BuildPlan(res.Image, res.Meta, 1<<20, p)
	if err != nil {
		t.Fatal(err)
	}
	data := EncodePlan(pl)

	wantFormatError := func(t *testing.T, err error, what string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: load succeeded, want *FormatError", what)
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error %v (%T) is not a *FormatError", what, err, err)
		}
		if fe.Offset < 0 || fe.Offset > int64(len(data))+1 {
			t.Errorf("%s: offset %d outside [0, %d]", what, fe.Offset, len(data)+1)
		}
	}

	// A future (or past) format version is rebuilt, not misparsed.
	stale := append([]byte(nil), data...)
	stale[len(planMagic)] = PlanFileVersion + 1
	_, err = LoadPlan(stale, res.Image, 1<<20, p)
	wantFormatError(t, err, "version bump")
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch error does not say so: %v", err)
	}

	// A recompiled (different) program must never be served this plan.
	_, err = LoadPlan(data, other.Image, 1<<20, p)
	wantFormatError(t, err, "image mismatch")

	// Same image, different stream bound or sampling parameters.
	_, err = LoadPlan(data, res.Image, 1<<19, p)
	wantFormatError(t, err, "maxInsts mismatch")
	p2 := p
	p2.IntervalLen = p.IntervalLen * 2
	_, err = LoadPlan(data, res.Image, 1<<20, p2)
	wantFormatError(t, err, "params mismatch")

	// Trailing garbage: a concatenated or padded file is corrupt.
	_, err = LoadPlan(append(append([]byte(nil), data...), 0xAA), res.Image, 1<<20, p)
	wantFormatError(t, err, "trailing garbage")

	// Truncation at every eighth byte: always an in-bounds *FormatError.
	for n := 0; n < len(data); n += 8 {
		if _, err := LoadPlan(data[:n], res.Image, 1<<20, p); err == nil {
			t.Fatalf("truncation to %d bytes loaded successfully", n)
		} else {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("truncation to %d: %v is not a *FormatError", n, err)
			}
		}
	}
}

// FuzzPlanFile: hostile bytes must produce an in-bounds *FormatError or a
// plan whose re-encoding round-trips — never a panic, never an unbounded
// allocation.
func FuzzPlanFile(f *testing.F) {
	res := compileWorkload(f, "CRC32", 4)
	pl, err := BuildPlan(res.Image, res.Meta, 1<<18, Default())
	if err != nil {
		f.Fatal(err)
	}
	valid := EncodePlan(pl)
	legacy := encodePlanAt(pl, 1) // v1 full-map form: the reader accepts both
	f.Add(valid)
	f.Add(legacy)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add(legacy[:len(legacy)*2/3])
	f.Add([]byte(planMagic))
	f.Add([]byte{})
	for _, i := range []int{0, len(planMagic), len(planMagic) + 1, len(valid) / 3, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xFF
		f.Add(mut)
	}
	// Hit the v2 delta sections specifically: the changed-entry and
	// tombstone counts live in the back half of the file, after the pilot
	// columns of the first representative.
	for _, i := range []int{len(valid) * 3 / 4, len(valid) - len(valid)/8, len(legacy) / 2} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x55
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pl, _, err := DecodePlan(data)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("decode error %v (%T) is not a *FormatError", err, err)
			}
			if fe.Offset < 0 || fe.Offset > int64(len(data))+1 {
				t.Fatalf("error offset %d outside [0, %d]: %v", fe.Offset, len(data)+1, err)
			}
			return
		}
		// Decoded cleanly: the plan must survive an encode→decode round trip.
		re := EncodePlan(pl)
		if _, _, err := DecodePlan(re); err != nil {
			t.Fatalf("re-encoded plan fails to decode: %v", err)
		}
	})
}
