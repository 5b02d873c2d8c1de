// Package netmodel holds the cluster network end-to-end latency model that
// CBES builds during its off-line calibration phase and consults at
// mapping-evaluation time.
//
// The model is keyed by path class (cluster.Topology.PathSignature): all
// node pairs whose routes cross the same device classes between the same
// architectures share one latency curve, which is what makes an O(N)
// system profile possible on an N-node cluster. Each class stores
//
//   - a no-load latency curve L0(s): piecewise-linear in message size,
//     fitted from ping-pong measurements at calibration sizes, and
//   - load coefficients CSend/CRecv: the additional one-way latency per
//     unit of (1/ACPU − 1) at the sending/receiving end, fitted from
//     calibration runs under controlled CPU load,
//
// so that the on-demand latency estimate (the Lc of eq. 6) is
//
//	Lc(src,dst,s) = L0(s) + CSend·(1/a_src − 1) + CRecv·(1/a_dst − 1)
//	              + (L0(s) − L0(s_min)) · (q(u_src) + q(u_dst))
//
// with a the CPU availability forecast, u the NIC utilization forecast,
// and q(u) = u/(1−u) the queueing inflation of the bandwidth-dependent
// part (capped at u = 0.9).
package netmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"cbes/internal/cluster"
)

// maxNICUtil caps the NIC utilization used in the queueing term.
const maxNICUtil = 0.9

// Curve is a piecewise-linear latency curve over message size: Lat[i] is
// the one-way latency in seconds at Sizes[i]. Sizes must be strictly
// increasing. Beyond the last point the curve extrapolates with the final
// slope; below the first point it clamps.
type Curve struct {
	Sizes []int64   `json:"sizes"`
	Lat   []float64 `json:"lat"`
}

// At evaluates the curve at the given message size.
func (c *Curve) At(size int64) float64 {
	n := len(c.Sizes)
	if n == 0 {
		return 0
	}
	if n == 1 || size <= c.Sizes[0] {
		return c.Lat[0]
	}
	i := sort.Search(n, func(k int) bool { return c.Sizes[k] >= size })
	if i == n {
		// Extrapolate with the last segment's slope.
		i = n - 1
	}
	lo, hi := i-1, i
	ds := float64(c.Sizes[hi] - c.Sizes[lo])
	dl := c.Lat[hi] - c.Lat[lo]
	return c.Lat[lo] + dl*(float64(size-c.Sizes[lo]))/ds
}

// Base returns the latency at the smallest calibrated size — the
// bandwidth-independent floor used to isolate the wire component.
func (c *Curve) Base() float64 {
	if len(c.Lat) == 0 {
		return 0
	}
	return c.Lat[0]
}

// Class is the calibrated model of one path class.
type Class struct {
	Curve Curve   `json:"curve"`
	CSend float64 `json:"csend"` // s per unit (1/a_src − 1)
	CRecv float64 `json:"crecv"` // s per unit (1/a_dst − 1)
	// Pairs counts how many ordered node pairs this class covers
	// (diagnostics for the O(N) claim).
	Pairs int `json:"pairs"`
}

// Model is the complete calibrated network model of one cluster.
type Model struct {
	ClusterName string           `json:"cluster"`
	Classes     map[string]Class `json:"classes"`

	topo *cluster.Topology

	// byID caches Classes resolved by interned path-class ID
	// (cluster.Topology.ClassID); rebuilt lazily, invalidated by SetClass
	// and Attach. Entries for uncalibrated classes are nil.
	byID   atomic.Pointer[[]*Class]
	buildM sync.Mutex
}

// New creates an empty model for the topology.
func New(topo *cluster.Topology) *Model {
	return &Model{ClusterName: topo.Name, Classes: map[string]Class{}, topo: topo}
}

// Attach re-binds a deserialized model to its topology (needed to resolve
// pair signatures). It errors if the topology name does not match.
func (m *Model) Attach(topo *cluster.Topology) error {
	if topo.Name != m.ClusterName {
		return fmt.Errorf("netmodel: model calibrated for %q, not %q", m.ClusterName, topo.Name)
	}
	m.topo = topo
	m.byID.Store(nil)
	return nil
}

// SetClass installs or replaces a class.
func (m *Model) SetClass(sig string, c Class) {
	m.Classes[sig] = c
	m.byID.Store(nil)
}

// ClassFor returns the class covering the ordered pair, or an error if the
// calibration never covered its signature.
func (m *Model) ClassFor(src, dst int) (Class, error) {
	if t := m.topo; t != nil && t.NumClasses() > 0 {
		id := t.ClassID(src, dst)
		if c := m.ClassesByID()[id]; c != nil {
			return *c, nil
		}
		return Class{}, fmt.Errorf("netmodel: no calibration for class %q", t.ClassSignature(id))
	}
	sig := m.topo.PathSignature(src, dst)
	c, ok := m.Classes[sig]
	if !ok {
		return Class{}, fmt.Errorf("netmodel: no calibration for class %q", sig)
	}
	return c, nil
}

// NoLoad returns the no-load one-way latency estimate in seconds.
func (m *Model) NoLoad(src, dst int, size int64) float64 {
	c, err := m.ClassFor(src, dst)
	if err != nil {
		panic(err)
	}
	return c.Curve.At(size)
}

// LatencyCond returns the load-adjusted latency estimate Lc given explicit
// conditions: CPU availability at each end and NIC utilization at each end.
func (m *Model) LatencyCond(src, dst int, size int64, aSrc, aDst, uSrc, uDst float64) float64 {
	c, err := m.ClassFor(src, dst)
	if err != nil {
		panic(err)
	}
	return c.Latency(size, aSrc, aDst, uSrc, uDst)
}

// Latency evaluates the load-adjusted latency estimate Lc on a prefetched
// class. It performs exactly the arithmetic of Model.LatencyCond, so callers
// holding a class from ClassesByID get bit-identical results to the
// signature-lookup path — the invariant the core fast path relies on.
func (c *Class) Latency(size int64, aSrc, aDst, uSrc, uDst float64) float64 {
	l := c.Curve.At(size)
	if aSrc > 0 && aSrc < 1 {
		l += c.CSend * (1/aSrc - 1)
	}
	if aDst > 0 && aDst < 1 {
		l += c.CRecv * (1/aDst - 1)
	}
	wire := c.Curve.At(size) - c.Curve.Base()
	if wire > 0 {
		l += wire * (queueFactor(uSrc) + queueFactor(uDst))
	}
	return l
}

// ClassesByID resolves the calibrated classes into a slice indexed by the
// topology's interned path-class ID (length Topology.NumClasses);
// uncalibrated classes map to nil. The slice replaces the old n×n dense
// pair table: it is O(classes), not O(N²), which is what lets the fast
// path index a 5k-node topology. Entries are copies snapshotted at build
// time; SetClass invalidates the cache so the next call rebuilds.
func (m *Model) ClassesByID() []*Class {
	if p := m.byID.Load(); p != nil {
		return *p
	}
	m.buildM.Lock()
	defer m.buildM.Unlock()
	if p := m.byID.Load(); p != nil {
		return *p
	}
	nc := m.topo.NumClasses()
	t := make([]*Class, nc)
	for id := 0; id < nc; id++ {
		if c, ok := m.Classes[m.topo.ClassSignature(id)]; ok {
			cc := c
			t[id] = &cc
		}
	}
	m.byID.Store(&t)
	return t
}

func queueFactor(u float64) float64 {
	if u <= 0 {
		return 0
	}
	if u > maxNICUtil {
		u = maxNICUtil
	}
	return u / (1 - u)
}

// Spread reports the relative spread (max−min)/min of no-load small-message
// latency across all distinct node pairs — the quantity the paper reports
// as ≈13 % for Centurion and ≈54 % for Orange Grove.
func (m *Model) Spread(size int64) float64 {
	lo, hi := 0.0, 0.0
	first := true
	n := m.topo.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			l := m.NoLoad(i, j, size)
			if first {
				lo, hi = l, l
				first = false
				continue
			}
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
	}
	if lo == 0 {
		return 0
	}
	return (hi - lo) / lo
}

// Encode writes the model as JSON (the "database" of the system profile).
func (m *Model) Encode(w io.Writer) error { return json.NewEncoder(w).Encode(m) }

// Decode reads a model written by Encode; call Attach before use.
func Decode(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("netmodel: decode: %w", err)
	}
	if m.Classes == nil {
		m.Classes = map[string]Class{}
	}
	return &m, nil
}
