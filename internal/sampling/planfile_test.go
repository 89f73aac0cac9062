package sampling

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
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

	// Bytes of an older format (v1 full maps, v2 delta sections with
	// tombstones) or a future one are rebuilt, never misparsed.
	for _, v := range []byte{1, 2, PlanFileVersion + 1} {
		stale := append([]byte(nil), data...)
		stale[planVersionOffset] = v
		_, err = LoadPlan(stale, res.Image, 1<<20, p)
		wantFormatError(t, err, fmt.Sprintf("version %d", v))
		if fe, _ := AsFormatError(err); fe.Offset != planVersionOffset || !strings.Contains(err.Error(), "version") {
			t.Errorf("version %d: want a version error at offset %d, got %v", v, planVersionOffset, err)
		}
	}

	// The header after the version byte: the name (uvarint length, bytes),
	// the params, the stream bound (varint), then the image hash. A binding
	// mismatch must name the offset of the field that disagrees.
	paramsOff := planVersionOffset + 1 + int64(len(binary.AppendUvarint(nil, uint64(len(pl.Name))))+len(pl.Name))
	hash := res.ImageHash()
	hashOff := int64(bytes.Index(data, hash[:]))
	maxInstsOff := hashOff - int64(len(binary.AppendVarint(nil, 1<<20)))
	wantOffset := func(err error, what string, want int64) {
		t.Helper()
		wantFormatError(t, err, what)
		if fe, _ := AsFormatError(err); fe.Offset != want || !strings.Contains(err.Error(), what) {
			t.Errorf("%s: got %v, want a %s error at offset %d", what, err, what, want)
		}
	}

	// A recompiled (different) program must never be served this plan.
	_, err = LoadPlan(data, other.Image, 1<<20, p)
	wantOffset(err, "image hash mismatch", hashOff)

	// Same image, different stream bound or sampling parameters.
	_, err = LoadPlan(data, res.Image, 1<<19, p)
	wantOffset(err, "stream bound mismatch", maxInstsOff)
	p2 := p
	p2.IntervalLen = p.IntervalLen * 2
	_, err = LoadPlan(data, res.Image, 1<<20, p2)
	wantOffset(err, "params mismatch", paramsOff)

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
// allocation. Bytes of any other format version fail at the version byte.
func FuzzPlanFile(f *testing.F) {
	// A small sampled plan keeps the seeds short, so the fuzzer spends its
	// budget mutating rather than minimizing; dijkstra's second checkpoint
	// holds stores, so its delta section is non-empty.
	res := compileWorkload(f, "dijkstra", 8)
	pl, err := BuildPlan(res.Image, res.Meta, 1<<12, Params{Enabled: true, IntervalLen: 128, MaxK: 2, CooldownInsts: 64})
	if err != nil {
		f.Fatal(err)
	}
	if pl.Full {
		f.Fatal("plan degenerated to Full: the seeds need representatives")
	}
	valid := EncodePlan(pl)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte(planMagic))
	f.Add([]byte{})
	for _, v := range []byte{1, 2} {
		old := append([]byte(nil), valid...)
		old[planVersionOffset] = v
		f.Add(old)
	}
	flip := func(i int, mask byte) {
		mut := append([]byte(nil), valid...)
		mut[i] ^= mask
		f.Add(mut)
	}
	for _, i := range []int{0, len(planMagic), len(planMagic) + 1, len(valid) / 3, len(valid) - 1} {
		flip(i, 0xFF)
	}
	// Aim at the v3 sections. The warm columns follow the rep count, which
	// ends where the same plan without representatives has its end marker.
	noReps := &Plan{Name: pl.Name, Params: pl.Params, Profile: pl.Profile, img: pl.img, imgHash: pl.imgHash, maxInsts: pl.maxInsts}
	warmCols := len(EncodePlan(noReps)) - 1
	nIvs := len(pl.Profile.Intervals)
	for _, i := range []int{warmCols - 1, warmCols, warmCols + 8*nIvs, warmCols + 8*(2*nIvs+1) - 1} {
		flip(i, 0x55)
	}
	// The last representative's checkpoint closes the file: its register
	// head, then the memory delta's count and (addr, value) pairs, then the
	// fp memory delta.
	last := &pl.Reps[len(pl.Reps)-1].WarmSnap
	w := &planWriter{}
	w.snapshot(last, res.Image.Data, res.Image.FData)
	snapStart := len(valid) - 1 - w.buf.Len()
	head := *last
	head.Mem, head.FMem = nil, nil
	w = &planWriter{}
	w.snapshot(&head, nil, nil)
	delta := snapStart + w.buf.Len() - 2
	if valid[delta] == 0 {
		f.Fatal("the last checkpoint has an empty memory delta: the delta seeds would hit nothing")
	}
	for _, i := range []int{delta, delta + 1, (delta + len(valid)) / 2, len(valid) - 2} {
		flip(i, 0x55)
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
			if len(data) > int(planVersionOffset) && bytes.HasPrefix(data, []byte(planMagic)) &&
				data[planVersionOffset] != PlanFileVersion && fe.Offset != planVersionOffset {
				t.Fatalf("version %d bytes fail at offset %d, not at the version byte: %v",
					data[planVersionOffset], fe.Offset, err)
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
