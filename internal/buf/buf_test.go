package buf

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestAllocZeroed(t *testing.T) {
	b := Alloc(128)
	if b.Len() != 128 {
		t.Fatalf("Len = %d, want 128", b.Len())
	}
	if b.IsVirtual() {
		t.Fatal("Alloc returned a virtual block")
	}
	for i, x := range b.Bytes() {
		if x != 0 {
			t.Fatalf("byte %d = %d, want 0", i, x)
		}
	}
}

func TestAllocAlignedLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 4096} {
		b := AllocAligned(n)
		if b.Len() != n {
			t.Errorf("AllocAligned(%d).Len() = %d", n, b.Len())
		}
	}
}

func TestVirtualBlock(t *testing.T) {
	v := Virtual(1 << 30)
	if !v.IsVirtual() {
		t.Fatal("Virtual block reports real")
	}
	if v.Len() != 1<<30 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.Bytes() != nil {
		t.Fatal("virtual block has backing bytes")
	}
	// Copies involving virtual blocks count but do not move bytes.
	r := Alloc(64)
	if n := Copy(r, v.Slice(0, 64)); n != 64 {
		t.Fatalf("Copy = %d, want 64", n)
	}
}

func TestSliceAliasing(t *testing.T) {
	b := Alloc(16)
	s := b.Slice(4, 8)
	s.Bytes()[0] = 42
	if b.Bytes()[4] != 42 {
		t.Fatal("slice does not alias parent")
	}
	if s.Region() != b.Region() {
		t.Fatal("slice changed region identity")
	}
}

func TestSliceBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Slice did not panic")
		}
	}()
	Alloc(8).Slice(4, 8)
}

func TestCopyAt(t *testing.T) {
	src := Alloc(10)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i + 1)
	}
	dst := Alloc(10)
	if n := CopyAt(dst, 2, src, 5, 3); n != 3 {
		t.Fatalf("CopyAt = %d", n)
	}
	want := []byte{0, 0, 6, 7, 8, 0, 0, 0, 0, 0}
	for i, w := range want {
		if dst.Bytes()[i] != w {
			t.Fatalf("dst[%d] = %d, want %d", i, dst.Bytes()[i], w)
		}
	}
}

func TestCopyAtBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range CopyAt did not panic")
		}
	}()
	CopyAt(Alloc(4), 0, Alloc(4), 2, 3)
}

func TestFillVerifyPattern(t *testing.T) {
	b := Alloc(1 << 16)
	b.FillPattern(7)
	if err := b.VerifyPattern(7); err != nil {
		t.Fatalf("VerifyPattern: %v", err)
	}
	b.Bytes()[1234] ^= 0xff
	if err := b.VerifyPattern(7); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestPatternSeedsDiffer(t *testing.T) {
	a := Alloc(256)
	b := Alloc(256)
	a.FillPattern(1)
	b.FillPattern(2)
	if Equal(a, b) {
		t.Fatal("different seeds produced identical patterns")
	}
}

func TestEqual(t *testing.T) {
	a, b := Alloc(32), Alloc(32)
	a.FillPattern(9)
	b.FillPattern(9)
	if !Equal(a, b) {
		t.Fatal("identical blocks not equal")
	}
	if Equal(a, Alloc(16)) {
		t.Fatal("length mismatch reported equal")
	}
	if !Equal(a, Virtual(32)) {
		t.Fatal("virtual comparison must be length-only")
	}
}

func TestRegionsDistinct(t *testing.T) {
	if Alloc(1).Region() == Alloc(1).Region() {
		t.Fatal("two allocations share a region")
	}
}

func TestZero(t *testing.T) {
	b := Alloc(64)
	b.FillPattern(3)
	b.Zero()
	for i, x := range b.Bytes() {
		if x != 0 {
			t.Fatalf("byte %d = %d after Zero", i, x)
		}
	}
}

// Property: a round trip through CopyAt preserves any pattern for any
// sizes and offsets within bounds.
func TestQuickCopyRoundTrip(t *testing.T) {
	f := func(seed byte, size uint16, off uint8) bool {
		n := int(size)%512 + 1
		o := int(off) % n
		src := Alloc(n)
		src.FillPattern(seed)
		dst := Alloc(n)
		CopyAt(dst, o, src, o, n-o)
		for i := o; i < n; i++ {
			if dst.Bytes()[i] != src.Bytes()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Copy never reports more bytes than either block holds.
func TestQuickCopyClamped(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a)%1024, int(b)%1024
		n := Copy(Alloc(x), Alloc(y))
		min := x
		if y < x {
			min = y
		}
		return n == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fillBytewise is the definitional byte loop the word-wide FillPattern
// must reproduce.
func fillBytewise(d []byte, seed byte) {
	for i := range d {
		d[i] = patternByte(seed, i)
	}
}

// patternLengths covers every length up to 600 (all word tails around
// the first two 256-byte rows) plus lengths either side of later row
// boundaries and of the 64 KiB boundary where byte(i>>16) turns over.
func patternLengths() []int {
	var ls []int
	for n := 0; n <= 600; n++ {
		ls = append(ls, n)
	}
	for _, edge := range []int{1024, 4096, 1 << 16, 2 << 16} {
		for d := -9; d <= 9; d++ {
			ls = append(ls, edge+d)
		}
	}
	return ls
}

func TestFillPatternMatchesBytewise(t *testing.T) {
	for _, seed := range []byte{0, 1, 7, 0x80, 0xff} {
		for _, n := range patternLengths() {
			got := Alloc(n)
			got.FillPattern(seed)
			want := make([]byte, n)
			fillBytewise(want, seed)
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("FillPattern(seed=%d) over %d bytes differs from patternByte", seed, n)
			}
			if err := FromBytes(want).VerifyPattern(seed); err != nil {
				t.Fatalf("VerifyPattern(seed=%d) rejects the bytewise pattern over %d bytes: %v", seed, n, err)
			}
		}
	}
}

// TestVerifyPatternReportsFirstMismatch corrupts one or two bytes at
// every word lane, in word-aligned bodies, row tails and byte tails,
// and requires the error to name the first corrupted byte with the
// byte-loop error text.
func TestVerifyPatternReportsFirstMismatch(t *testing.T) {
	const seed = 5
	for _, n := range []int{1, 7, 8, 9, 255, 256, 300, 1<<16 + 13} {
		for _, at := range []int{0, 1, 7, 8, 13, 250, 255, 256, 263, 1 << 16, 1<<16 + 12} {
			if at >= n {
				continue
			}
			b := Alloc(n)
			b.FillPattern(seed)
			want := b.Bytes()[at]
			b.Bytes()[at] ^= 0x5a
			if at+3 < n {
				b.Bytes()[at+3] ^= 0x11 // a later mismatch in the same word must not win
			}
			msg := fmt.Sprintf("buf: pattern mismatch at byte %d: got %#x want %#x", at, want^0x5a, want)
			if err := b.VerifyPattern(seed); err == nil || err.Error() != msg {
				t.Fatalf("n=%d at=%d: VerifyPattern = %v, want %q", n, at, err, msg)
			}
		}
	}
}

func TestEqualDetectsEveryByte(t *testing.T) {
	a, b := Alloc(300), Alloc(300)
	a.FillPattern(3)
	for i := 0; i < a.Len(); i++ {
		b.FillPattern(3)
		b.Bytes()[i] ^= 1
		if Equal(a, b) {
			t.Fatalf("difference at byte %d not detected", i)
		}
	}
}

const benchPatternBytes = 16 << 20 // the largest real payload of the Figure 1 sweep

func BenchmarkFillPattern(b *testing.B) {
	blk := Alloc(benchPatternBytes)
	b.SetBytes(benchPatternBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.FillPattern(byte(i))
	}
}

func BenchmarkVerifyPattern(b *testing.B) {
	blk := Alloc(benchPatternBytes)
	blk.FillPattern(9)
	b.SetBytes(benchPatternBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := blk.VerifyPattern(9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEqual(b *testing.B) {
	x, y := Alloc(benchPatternBytes), Alloc(benchPatternBytes)
	x.FillPattern(9)
	y.FillPattern(9)
	b.SetBytes(benchPatternBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Equal(x, y) {
			b.Fatal("identical blocks not equal")
		}
	}
}
