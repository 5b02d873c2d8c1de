package netmodel

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"cbes/internal/cluster"
)

func TestCurveInterpolation(t *testing.T) {
	c := Curve{Sizes: []int64{0, 100, 200}, Lat: []float64{1, 2, 4}}
	cases := map[int64]float64{
		0: 1, 50: 1.5, 100: 2, 150: 3, 200: 4,
		300: 6, // extrapolate last slope
		-5:  1, // clamp below
	}
	for s, want := range cases {
		if got := c.At(s); math.Abs(got-want) > 1e-12 {
			t.Fatalf("At(%d) = %v, want %v", s, got, want)
		}
	}
	if c.Base() != 1 {
		t.Fatalf("Base = %v", c.Base())
	}
	var empty Curve
	if empty.At(10) != 0 || empty.Base() != 0 {
		t.Fatal("empty curve should be 0")
	}
	single := Curve{Sizes: []int64{64}, Lat: []float64{7}}
	if single.At(1) != 7 || single.At(1e6) != 7 {
		t.Fatal("single-point curve should be constant")
	}
}

// TestClassLatencyEq6 pins Class.Latency against eq. 6 written out by hand:
// Lc = L(s) + CSend(1/a_src − 1) + CRecv(1/a_dst − 1)
//   - (L(s) − L(s0))·(q(u_src) + q(u_dst)), with q(u) = u/(1 − u) capped at
//
// u = 0.9, at sizes below, at, between and beyond the calibration points.
func TestClassLatencyEq6(t *testing.T) {
	c := &Class{
		Curve: Curve{Sizes: []int64{64, 1024, 65536}, Lat: []float64{0.25, 0.5, 4.5}},
		CSend: 0.125,
		CRecv: 0.0625,
	}
	cases := []struct {
		name                   string
		size                   int64
		l                      float64 // L(size), interpolated by hand
		aSrc, aDst, uSrc, uDst float64
		qSrc, qDst             float64 // q(uSrc), q(uDst)
	}{
		{"below first point", 8, 0.25, 0.5, 0.25, 0.5, 0.75, 1, 3},
		{"at first point", 64, 0.25, 1, 1, 0, 0, 0, 0},
		{"between first two", 544, 0.375, 0.5, 1, 0.5, 0, 1, 0},
		{"at middle point", 1024, 0.5, 1, 0.25, 0, 0.75, 0, 3},
		{"between last two", 33280, 2.5, 0.25, 0.5, 0.75, 0.5, 3, 1},
		{"at last point", 65536, 4.5, 0, 1.5, 0.95, 0, 9, 0},
		{"beyond last point", 130048, 8.5, 0.5, 0.5, 0.5, 0.99, 1, 9},
	}
	for _, tc := range cases {
		want := tc.l
		if tc.aSrc > 0 && tc.aSrc < 1 {
			want += 0.125 * (1/tc.aSrc - 1)
		}
		if tc.aDst > 0 && tc.aDst < 1 {
			want += 0.0625 * (1/tc.aDst - 1)
		}
		want += (tc.l - 0.25) * (tc.qSrc + tc.qDst)
		got := c.Latency(tc.size, tc.aSrc, tc.aDst, tc.uSrc, tc.uDst)
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("%s: Latency(%d) = %v, want %v", tc.name, tc.size, got, want)
		}
	}
}

func testModel(t *testing.T) (*Model, *cluster.Topology) {
	t.Helper()
	topo := cluster.NewTestTopology()
	m := New(topo)
	// Install synthetic classes for every signature present.
	n := topo.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sig := topo.PathSignature(i, j)
			if _, ok := m.Classes[sig]; ok {
				continue
			}
			base := 100e-6 + 20e-6*float64(topo.Hops(i, j))
			m.SetClass(sig, Class{
				Curve: Curve{
					Sizes: []int64{64, 1 << 10, 64 << 10},
					Lat:   []float64{base, base + 80e-6, base + 5e-3},
				},
				CSend: 35e-6,
				CRecv: 38e-6,
				Pairs: 1,
			})
		}
	}
	return m, topo
}

func TestNoLoadAndMissingClass(t *testing.T) {
	m, _ := testModel(t)
	if l := m.NoLoad(0, 1, 1<<10); math.Abs(l-(140e-6+80e-6)) > 1e-12 {
		t.Fatalf("NoLoad = %v", l)
	}
	if _, err := m.ClassFor(0, 1); err != nil {
		t.Fatal(err)
	}
	m2 := New(cluster.NewTestTopology())
	if _, err := m2.ClassFor(0, 1); err == nil {
		t.Fatal("expected missing-class error")
	}
}

func TestLoadAdjustment(t *testing.T) {
	m, _ := testModel(t)
	idle := m.LatencyCond(0, 1, 64, 1, 1, 0, 0)
	if math.Abs(idle-m.NoLoad(0, 1, 64)) > 1e-15 {
		t.Fatal("idle conditions must reproduce the no-load latency")
	}
	// CPU load at the source adds CSend*(1/a-1).
	half := m.LatencyCond(0, 1, 64, 0.5, 1, 0, 0)
	if math.Abs(half-idle-35e-6) > 1e-12 {
		t.Fatalf("src load adjustment = %v", half-idle)
	}
	// CPU load at the destination adds CRecv*(1/a-1).
	dhalf := m.LatencyCond(0, 1, 64, 1, 0.25, 0, 0)
	if math.Abs(dhalf-idle-3*38e-6) > 1e-12 {
		t.Fatalf("dst load adjustment = %v", dhalf-idle)
	}
	// NIC utilization inflates only the size-dependent part: at the base
	// size there is none.
	nic := m.LatencyCond(0, 1, 64, 1, 1, 0.5, 0)
	if math.Abs(nic-idle) > 1e-15 {
		t.Fatalf("NIC term at base size should vanish, got +%v", nic-idle)
	}
	big := m.LatencyCond(0, 1, 64<<10, 1, 1, 0.5, 0)
	bigIdle := m.NoLoad(0, 1, 64<<10)
	wire := bigIdle - m.NoLoad(0, 1, 64)
	if math.Abs(big-bigIdle-wire*1.0) > 1e-12 { // q(0.5)=1
		t.Fatalf("NIC inflation = %v, want %v", big-bigIdle, wire)
	}
	// Utilization is capped: q(0.99) == q(0.9) == 9.
	capped := m.LatencyCond(0, 1, 64<<10, 1, 1, 0.99, 0)
	if math.Abs(capped-bigIdle-wire*9) > 1e-9 {
		t.Fatalf("cap failed: %v", capped-bigIdle)
	}
}

func TestSpread(t *testing.T) {
	m, _ := testModel(t)
	s := m.Spread(64)
	// Same-switch 2 hops vs cross-switch 3 hops: (160-140)/140.
	want := 20.0 / 140.0
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("Spread = %v, want %v", s, want)
	}
}

func TestEncodeDecodeAttach(t *testing.T) {
	m, topo := testModel(t)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Attach(topo); err != nil {
		t.Fatal(err)
	}
	if got, want := m2.NoLoad(0, 1, 64), m.NoLoad(0, 1, 64); got != want {
		t.Fatalf("round trip NoLoad = %v, want %v", got, want)
	}
	if err := m2.Attach(cluster.NewOrangeGrove()); err == nil {
		t.Fatal("attach to wrong topology should fail")
	}
	if _, err := Decode(bytes.NewBufferString("{")); err == nil {
		t.Fatal("expected decode error")
	}
}

// Property: latency is monotone in size and never below no-load under any
// load conditions.
func TestQuickLatencyInvariants(t *testing.T) {
	m, _ := testModel(t)
	prop := func(s1, s2 uint32, a1, a2, u1, u2 uint8) bool {
		lo, hi := int64(s1%1e6), int64(s2%1e6)
		if lo > hi {
			lo, hi = hi, lo
		}
		aS := 0.05 + 0.95*float64(a1)/255
		aD := 0.05 + 0.95*float64(a2)/255
		uS := float64(u1) / 255
		uD := float64(u2) / 255
		l1 := m.LatencyCond(0, 5, lo, aS, aD, uS, uD)
		l2 := m.LatencyCond(0, 5, hi, aS, aD, uS, uD)
		if l2 < l1-1e-12 {
			return false
		}
		return l1 >= m.NoLoad(0, 5, lo)-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
