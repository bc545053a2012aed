package cluster

import (
	"math/rand"
	"testing"

	"hpcsched/internal/sim"
)

// FuzzCalendarStep decodes bytes into one calendar step — node keys,
// including MaxTime ones and finished nodes, a reach closure that is
// uniform (flat: round trip twice the floor; FloorPacing: every entry the
// floor), uniform by other values, or arbitrary, and a run horizon — and
// holds the fused step (head's one pass, windowHorizon from the two least
// keys under a uniform reach) to the row scan it replaces, kept here as
// the reference.
//
//	go test -run '^$' -fuzz FuzzCalendarStep -fuzztime 20s ./internal/cluster
func FuzzCalendarStep(f *testing.F) {
	for _, seed := range []int64{1, 7} {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{8, 64, 512} {
			b := make([]byte, n)
			rng.Read(b)
			f.Add(b)
		}
	}
	f.Fuzz(checkCalendarStep)
}

// stepBytes reads the fuzz input; once exhausted it reads zeros.
type stepBytes []byte

func (r *stepBytes) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

// time decodes an instant: MaxTime, one just short of it (so sums
// saturate), or a small value, where ties are likely.
func (r *stepBytes) time() sim.Time {
	switch b := r.byte(); {
	case b == 0xff:
		return sim.MaxTime
	case b >= 0xf0:
		return sim.MaxTime - sim.Time(b&0x0f)
	default:
		return sim.Time(b)*8 + sim.Time(r.byte()%8)
	}
}

// latency decodes a reach entry: MaxTime (no path) or a positive latency.
func (r *stepBytes) latency() sim.Time {
	if t := r.time(); t < sim.MaxTime-16 {
		return 1 + t
	}
	return sim.MaxTime
}

func checkCalendarStep(t *testing.T, data []byte) {
	r := stepBytes(data)
	n := 1 + int(r.byte()%20)
	c := &Cluster{keys: make([]sim.Time, n), done: make([]bool, n)}
	for i := range c.keys {
		if r.byte()%4 == 0 {
			c.done[i], c.keys[i] = true, sim.MaxTime
		} else {
			c.keys[i] = r.time()
		}
	}
	c.reachTo = make([][]sim.Time, n)
	mode := r.byte() % 4
	off, diag := r.latency(), r.latency()
	switch mode {
	case 0: // flat
		diag = satAdd(off, off)
	case 1: // FloorPacing
		diag = off
	}
	for i := range c.reachTo {
		c.reachTo[i] = make([]sim.Time, n)
		for j := range c.reachTo[i] {
			switch {
			case mode == 3:
				c.reachTo[i][j] = r.latency()
			case i == j:
				c.reachTo[i][j] = diag
			default:
				c.reachTo[i][j] = off
			}
		}
	}
	c.reachOff, c.reachDiag, c.uniform = uniformReach(c.reachTo)
	if mode < 3 && !c.uniform {
		t.Fatalf("uniform reach (off %d, diag %d) not detected", off, diag)
	}
	c.horizon = min(r.time(), sim.MaxTime-1)

	head, second := c.head()
	if want := refHead(c); head != want {
		t.Fatalf("keys %d done %v: head %d, row scan %d", c.keys, c.done, head, want)
	}
	if head < 0 {
		return
	}
	if want := refSecond(c.keys, head); second != want {
		t.Fatalf("keys %d: second-least key %d beside head %d, want %d", c.keys, second, head, want)
	}
	if got, want := c.windowHorizon(head, second), refHorizon(c, head); got != want {
		t.Fatalf("keys %d reach %d horizon %d: window bound %d, row scan %d",
			c.keys, c.reachTo[head], c.horizon, got, want)
	}
}

// refHead is the head rule as a plain scan: the least key, the lowest
// index on a tie, and the first unfinished node when every key is MaxTime.
func refHead(c *Cluster) int {
	head := 0
	for i, k := range c.keys {
		if k < c.keys[head] {
			head = i
		}
	}
	if c.keys[head] < sim.MaxTime {
		return head
	}
	for i, done := range c.done {
		if !done {
			return i
		}
	}
	return -1
}

// refSecond is the least key of every node but head.
func refSecond(keys []sim.Time, head int) sim.Time {
	second := sim.MaxTime
	for i, k := range keys {
		if i != head {
			second = min(second, k)
		}
	}
	return second
}

// refHorizon is the window bound as the full row scan over the head's
// reach: one tick short of min_j(key_j + reachTo[head][j]), capped at the
// run horizon.
func refHorizon(c *Cluster, head int) sim.Time {
	h := c.horizon
	for j, k := range c.keys {
		if eit := satAdd(k, c.reachTo[head][j]); eit <= h {
			h = eit - 1
		}
	}
	return h
}
