package slab

import "testing"

// The slab counters and free lists are process-global, so every test
// asserts on deltas and none runs in parallel.

func TestClassForBoundaries(t *testing.T) {
	top := maxClassBits - minClassBits
	for _, c := range []struct{ n, want int }{
		{0, 0},
		{1, 0},
		{64, 0},
		{65, 1},
		{4 << 20, top},
		{4<<20 + 1, -1},
	} {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPutThenGetIsHit(t *testing.T) {
	b := Get(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("Get(100): len %d cap %d, want 100/128", len(b), cap(b))
	}
	h0, _, p0 := Stats()
	Put(b)
	b2 := Get(120)
	h1, _, p1 := Stats()
	if p1-p0 != 1 || h1-h0 != 1 {
		t.Fatalf("put then get: puts +%d hits +%d, want +1/+1", p1-p0, h1-h0)
	}
	if len(b2) != 120 || cap(b2) != 128 {
		t.Fatalf("recycled buffer: len %d cap %d, want 120/128", len(b2), cap(b2))
	}
	Put(b2)
}

func TestOddBuffersNeverPooled(t *testing.T) {
	_, m0, _ := Stats()
	big := Get(4<<20 + 1)
	if _, m1, _ := Stats(); m1-m0 != 1 {
		t.Fatalf("oversize Get: misses +%d, want +1", m1-m0)
	}
	for _, b := range [][]byte{
		big,                    // above the top class
		make([]byte, 100),      // capacity not a power of two
		make([]byte, 8, 32),    // power of two below the smallest class
		make([]byte, 1, 8<<20), // power of two above the top class
		nil,
	} {
		_, _, p0 := Stats()
		Put(b)
		if _, _, p1 := Stats(); p1 != p0 {
			t.Errorf("Put(cap %d) was pooled", cap(b))
		}
	}
}

func TestFreeListCapped(t *testing.T) {
	const size = 2048
	c := &classes[classFor(size)]
	c.mu.Lock()
	held := len(c.free)
	c.mu.Unlock()

	_, _, p0 := Stats()
	for i := 0; i < maxFreePerClass+10; i++ {
		Put(make([]byte, size))
	}
	_, _, p1 := Stats()
	if got, want := p1-p0, uint64(maxFreePerClass-held); got != want {
		t.Errorf("puts +%d, want +%d (cap %d, %d already held)", got, want, maxFreePerClass, held)
	}
	c.mu.Lock()
	n := len(c.free)
	c.free = c.free[:held] // drop what this test added
	c.mu.Unlock()
	if n != maxFreePerClass {
		t.Errorf("free list holds %d buffers, want cap %d", n, maxFreePerClass)
	}
}

func TestCheckModePoisonsReleasedBytes(t *testing.T) {
	prev := checkModeAtomic.Load()
	SetCheckMode(true)
	defer SetCheckMode(prev)

	b := Get(200)
	for i := range b {
		b[i] = 0x11
	}
	Put(b)
	full := b[:cap(b)]
	for i, v := range full {
		if v != poisonByte {
			t.Fatalf("byte %d after release = %#x, want %#x", i, v, poisonByte)
		}
	}
	// Take it back so the poisoned buffer is not left for later tests.
	Get(200)
}

func TestRefDoubleReleaseIsNoOp(t *testing.T) {
	r := Owned(Get(512))
	_, _, p0 := Stats()
	r.Release()
	_, _, p1 := Stats()
	r.Release()
	_, _, p2 := Stats()
	if p1-p0 != 1 || p2 != p1 {
		t.Fatalf("release puts: first +%d, second +%d, want +1/+0", p1-p0, p2-p1)
	}
	var zero Ref
	zero.Release() // the zero Ref owns nothing
	if _, _, p3 := Stats(); p3 != p2 {
		t.Fatalf("zero Ref release pooled a buffer")
	}
}
