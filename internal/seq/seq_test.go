package seq

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSequenceAccessors(t *testing.T) {
	s := Sequence{3, 1, 4, 1, 5, 9, 2, 6}
	if got := s.Len(); got != 8 {
		t.Errorf("Len = %d, want 8", got)
	}
	if s.Empty() {
		t.Error("Empty = true for non-empty sequence")
	}
	if got := s.First(); got != 3 {
		t.Errorf("First = %g, want 3", got)
	}
	if got := s.Last(); got != 6 {
		t.Errorf("Last = %g, want 6", got)
	}
	if got := s.Greatest(); got != 9 {
		t.Errorf("Greatest = %g, want 9", got)
	}
	if got := s.Smallest(); got != 1 {
		t.Errorf("Smallest = %g, want 1", got)
	}
	min, max := s.MinMax()
	if min != 1 || max != 9 {
		t.Errorf("MinMax = (%g, %g), want (1, 9)", min, max)
	}
	rest := s.Rest()
	if rest.Len() != 7 || rest.First() != 1 {
		t.Errorf("Rest = %v", rest)
	}
}

func TestSequenceSingleElement(t *testing.T) {
	s := Sequence{42}
	if s.First() != 42 || s.Last() != 42 || s.Greatest() != 42 || s.Smallest() != 42 {
		t.Errorf("single-element accessors disagree: %v", s)
	}
	if !s.Rest().Empty() {
		t.Error("Rest of single-element sequence should be empty")
	}
}

func TestSequenceEmpty(t *testing.T) {
	var s Sequence
	if !s.Empty() {
		t.Error("zero value should be empty")
	}
	if s.Len() != 0 {
		t.Error("empty Len != 0")
	}
	if _, err := ExtractFeature(s); err != ErrEmpty {
		t.Errorf("ExtractFeature(empty) err = %v, want ErrEmpty", err)
	}
}

func TestMeanStd(t *testing.T) {
	s := Sequence{2, 4, 4, 4, 5, 5, 7, 9}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := s.Std(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Std = %g, want 2", got)
	}
	var empty Sequence
	if empty.Mean() != 0 || empty.Std() != 0 {
		t.Error("empty Mean/Std should be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Sequence{1, 2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Error("Clone aliases the original")
	}
	if !s.Equal(Sequence{1, 2, 3}) {
		t.Error("Equal failed on identical content")
	}
	if s.Equal(c) {
		t.Error("Equal true after divergence")
	}
	if s.Equal(Sequence{1, 2}) {
		t.Error("Equal true for different lengths")
	}
}

func TestStringEliding(t *testing.T) {
	short := Sequence{1, 2}
	if got := short.String(); got != "[1 2]" {
		t.Errorf("String = %q", got)
	}
	long := make(Sequence, 100)
	if got := long.String(); len(got) > 120 {
		t.Errorf("String of long sequence too long: %q", got)
	}
}

func TestExtractFeature(t *testing.T) {
	s := Sequence{5, 1, 9, 3}
	f, err := ExtractFeature(s)
	if err != nil {
		t.Fatal(err)
	}
	want := Feature{First: 5, Last: 3, Greatest: 9, Smallest: 1}
	if f != want {
		t.Errorf("Feature = %+v, want %+v", f, want)
	}
	if !f.Valid() {
		t.Error("extracted feature reported invalid")
	}
	v := f.Vector()
	if v != [4]float64{5, 3, 9, 1} {
		t.Errorf("Vector = %v", v)
	}
}

func TestFeatureDistLInf(t *testing.T) {
	a := Feature{First: 0, Last: 0, Greatest: 10, Smallest: 0}
	b := Feature{First: 1, Last: 3, Greatest: 12, Smallest: -1}
	if got := a.DistLInf(b); got != 3 {
		t.Errorf("DistLInf = %g, want 3", got)
	}
	if got := a.DistLInf(a); got != 0 {
		t.Errorf("self distance = %g, want 0", got)
	}
}

func TestFeatureValid(t *testing.T) {
	bad := Feature{First: 5, Last: 0, Greatest: 1, Smallest: 0} // First > Greatest
	if bad.Valid() {
		t.Error("inconsistent feature reported valid")
	}
	nan := Feature{First: math.NaN()}
	if nan.Valid() {
		t.Error("NaN feature reported valid")
	}
}

func TestMustFeaturePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFeature(empty) did not panic")
		}
	}()
	MustFeature(nil)
}

// Property: feature extraction is invariant under time warping, i.e. under
// arbitrary element replication.
func TestFeatureWarpInvariance(t *testing.T) {
	f := func(vals []float64, reps []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		s := Sequence(vals)
		warped := make(Sequence, 0, len(vals)*2)
		for i, v := range vals {
			n := 1
			if i < len(reps) {
				n += int(reps[i] % 4)
			}
			for k := 0; k < n; k++ {
				warped = append(warped, v)
			}
		}
		return MustFeature(s) == MustFeature(warped)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: DistLInf is a metric (symmetry, identity, triangle inequality).
func TestFeatureMetricProperties(t *testing.T) {
	mk := func(a, b, c, d float64) Feature {
		return Feature{First: a, Last: b, Greatest: c, Smallest: d}
	}
	f := func(x, y, z [4]float64) bool {
		fx := mk(x[0], x[1], x[2], x[3])
		fy := mk(y[0], y[1], y[2], y[3])
		fz := mk(z[0], z[1], z[2], z[3])
		dxy := fx.DistLInf(fy)
		dyx := fy.DistLInf(fx)
		dxz := fx.DistLInf(fz)
		dyz := fy.DistLInf(fz)
		// quick draws components up to ±MaxFloat64, so the slack must scale
		// with the magnitudes: an absolute 1e-9 lost to rounding at 1e308
		// about once in twenty runs.
		return dxy == dyx && fx.DistLInf(fx) == 0 && dxz <= (dxy+dyz)*(1+1e-12)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
