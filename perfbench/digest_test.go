package main

import (
	"math"
	"testing"

	"repro/internal/simnet"
)

func TestDigestEncodingIsStable(t *testing.T) {
	// Digests are compared across commits, so the encoding must not
	// drift: this value pins it (FNV-1a 64 of the little-endian bytes,
	// computed independently of this package).
	d := newDigest()
	d.i64(-3)
	d.f64(1.5)
	d.str("sendv")
	if got, want := d.sum(), uint64(0xf0e1057ebc6ebcc9); got != want {
		t.Fatalf("digest = %#x, want %#x", got, want)
	}
}

func TestDigestSeesEveryBit(t *testing.T) {
	sum := func(fn func(d *digest)) uint64 {
		d := newDigest()
		fn(d)
		return d.sum()
	}
	if sum(func(d *digest) { d.f64(0.1) }) != sum(func(d *digest) { d.f64(0.1) }) {
		t.Fatal("equal inputs, different digests")
	}
	for _, c := range []struct {
		name string
		a, b func(d *digest)
	}{
		{"order", func(d *digest) { d.f64(0.1); d.f64(0.2) }, func(d *digest) { d.f64(0.2); d.f64(0.1) }},
		{"last bit", func(d *digest) { d.f64(0.2) }, func(d *digest) { d.f64(math.Nextafter(0.2, 1)) }},
		{"signed zero", func(d *digest) { d.f64(0) }, func(d *digest) { d.f64(math.Copysign(0, -1)) }},
		{"string split", func(d *digest) { d.str("ab"); d.str("c") }, func(d *digest) { d.str("a"); d.str("bc") }},
	} {
		if sum(c.a) == sum(c.b) {
			t.Errorf("%s: digests equal", c.name)
		}
	}
}

func TestDigestViews(t *testing.T) {
	net := []simnet.Counters{{Retries: 1}}
	views := func(op, result float64, retries int64) [3]uint64 {
		d := newDigests()
		d.op(op)
		d.result(result)
		net[0].Retries = retries
		d.exact(net, simnet.MatchStats{FastTakes: 4})
		return d.sums()
	}
	base := views(1, 2, 3)
	for _, c := range []struct {
		name string
		got  [3]uint64
		same [3]bool // which views must not change
	}{
		{"op time", views(9, 2, 3), [3]bool{false, true, true}},
		{"result", views(1, 9, 3), [3]bool{false, false, true}},
		{"counter", views(1, 2, 9), [3]bool{false, false, false}},
	} {
		for k := range base {
			if (c.got[k] == base[k]) != c.same[k] {
				t.Errorf("%s: %s changed=%v, want changed=%v", c.name, digestNames[k], c.got[k] != base[k], !c.same[k])
			}
		}
	}
}
