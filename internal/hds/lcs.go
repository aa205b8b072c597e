package hds

import (
	"math/bits"

	"prefix/internal/mem"
)

// The LCS miner is the paper's replacement for Sequitur (§3.1): split the
// hot reference string into fixed-length windows and compute the Longest
// Common Subsequence between neighbouring windows. A subsequence common to
// two separate stretches of the trace is, by construction, a repeated
// access pattern — a hot data stream candidate. Candidates discovered from
// many window pairs accumulate heat and rise in the OHDS ranking.

// LCS computes a longest common subsequence of a and b. Deterministic: on
// ties it prefers advancing b, so equal inputs yield equal outputs across
// runs. An a of at most 64 references goes through the bit-parallel
// kernel, a longer one through the classic O(len(a)·len(b)) dynamic
// program; both return the same subsequence.
//
//prefix:hotpath
func LCS(a, b []mem.ObjectID) []mem.ObjectID {
	var lb lcsBuf
	return lb.lcs(a, b)
}

// lcsMaxAnchor is the longest anchor the bit-parallel kernel takes: one
// DP column over the anchor fits in a uint64.
const lcsMaxAnchor = 64

// maskSlots is the size of the anchor's match-mask table, a power of two
// at least twice lcsMaxAnchor so the open-addressed table is at most half
// full and a probe for an absent object ends after a few slots.
const (
	maskSlotBits = 7
	maskSlots    = 1 << maskSlotBits
)

// maskSlot maps one anchor object to its match mask: bit i is set where
// anchor[i] is obj. Every stored object occurs at least once, so a zero
// mask marks an empty slot.
type maskSlot struct {
	obj  mem.ObjectID
	mask uint64
}

// maskSlotOf is the home slot of o: the top bits of a Fibonacci hash.
//
//prefix:hotpath
func maskSlotOf(o mem.ObjectID) uint {
	return uint((uint64(o) * 0x9E3779B97F4A7C15) >> (64 - maskSlotBits))
}

// lcsCol is one column of the kernel: V_j and the match mask of b[j-1]
// that produced it, both read again by the traceback.
type lcsCol struct {
	v, match uint64
}

// lcsBuf owns the reusable state of a mining loop — the anchor window's
// match-mask table, the kernel's column words, the DP table of the
// long-anchor fallback, the traceback, the deduplicated member list and
// the candidate key — so a loop computing thousands of window-pair LCSes
// allocates each once instead of per pair. The zero value is ready to
// use.
type lcsBuf struct {
	anchor  []mem.ObjectID
	slots   [maskSlots]maskSlot
	cols    []lcsCol
	dp      []uint32
	out     []mem.ObjectID
	members []mem.ObjectID
	key     []byte
}

// lcs is LCS over the reusable buffers. The result lives in the buffer's
// out slice, so it is valid only until the next call.
//
//prefix:hotpath
func (lb *lcsBuf) lcs(a, b []mem.ObjectID) []mem.ObjectID {
	lb.setAnchor(a)
	return lb.lcsWith(b)
}

// setAnchor makes a the first sequence of the following lcsWith calls.
// For an a of at most lcsMaxAnchor references it builds the match-mask
// table once, so every window compared against the same anchor reuses it.
//
//prefix:hotpath
func (lb *lcsBuf) setAnchor(a []mem.ObjectID) {
	lb.anchor = a
	if len(a) > lcsMaxAnchor {
		return
	}
	lb.slots = [maskSlots]maskSlot{}
	for i, o := range a {
		s := maskSlotOf(o)
		for lb.slots[s].mask != 0 && lb.slots[s].obj != o {
			s = (s + 1) & (maskSlots - 1)
		}
		lb.slots[s].obj = o
		lb.slots[s].mask |= 1 << uint(i)
	}
}

// matchMask returns the anchor positions holding o as a bit set, zero
// when o is not in the anchor. An empty slot has a zero mask, so it
// answers the miss whatever its obj field holds.
//
//prefix:hotpath
func (lb *lcsBuf) matchMask(o mem.ObjectID) uint64 {
	for s := maskSlotOf(o); ; s = (s + 1) & (maskSlots - 1) {
		if sl := &lb.slots[s]; sl.obj == o || sl.mask == 0 {
			return sl.mask
		}
	}
}

// lcsWith computes LCS(anchor, b) with the bit-parallel kernel of
// Allison & Dix (1986) and Hyyrö (2004). Column j of the DP table over
// the anchor is one word V_j: bit i-1 of ^V_j is set exactly where
// dp[i][j] exceeds dp[i-1][j], so dp[i][j] = popcount(^V_j & (1<<i - 1)).
// Each column costs a table probe and four word operations, V_j =
// (V_{j-1} + U) | (V_{j-1} - U) with U = V_{j-1} & M[b[j-1]]; carries
// and borrows run only upward, so the bits above the anchor never
// disturb the cells. The traceback takes the DP's path through the same
// cells with the same tie-break, so the subsequence is identical. An
// anchor over lcsMaxAnchor falls back to the DP.
//
//prefix:hotpath
func (lb *lcsBuf) lcsWith(b []mem.ObjectID) []mem.ObjectID {
	a := lb.anchor
	n, m := len(a), len(b)
	if n > lcsMaxAnchor {
		//lint:ignore hotcall only the exported LCS and a Window over 64 reach the DP; the mining loop's anchors fit one word
		return lb.lcsDP(a, b)
	}
	if n == 0 || m == 0 {
		return nil
	}
	if cap(lb.cols) < m {
		//lint:ignore hotalloc the column words grow to the high-water mark once, then every later pair reuses them
		lb.cols = make([]lcsCol, m)
	}
	cols := lb.cols[:m]
	v := ^uint64(0)
	for j, o := range b {
		match := lb.matchMask(o)
		u := v & match
		v = (v + u) | (v - u)
		cols[j] = lcsCol{v: v, match: match}
	}
	// dp[n][m]; a shift by 64 yields 0 in Go, so n = 64 gets the
	// all-ones mask.
	k := bits.OnesCount64(^v & (1<<uint(n) - 1))
	out := lb.outBuf(k)
	// The DP's traceback at cell (i, j) takes the diagonal on a match,
	// else moves up while dp[i-1][j] >= dp[i][j-1], else left. Off a
	// match dp[i][j] is the larger of those two, so "up" is exactly
	// dp[i-1][j] == dp[i][j]: a set bit i-1 in V_j. The run of up moves
	// in column j therefore ends at the highest row below i whose bit is
	// a match or a clear V_j bit, found with one leading-zero count.
	for j, i := m, n; j > 0; j-- {
		c := cols[j-1]
		stop := (c.match | ^c.v) & (1<<uint(i) - 1)
		if stop == 0 {
			break // up to row 0: the path has left the table
		}
		p := 63 - bits.LeadingZeros64(stop)
		if c.match>>uint(p)&1 != 0 {
			k--
			out[k] = a[p]
			i = p
		} else {
			i = p + 1
		}
	}
	return out
}

// outBuf returns the traceback buffer resized to k. It is non-nil even
// when k is 0, as LCS has always returned for non-empty inputs.
//
//prefix:hotpath
func (lb *lcsBuf) outBuf(k int) []mem.ObjectID {
	if lb.out == nil || cap(lb.out) < k {
		//lint:ignore hotalloc the traceback buffer grows to the high-water mark once, then every later pair reuses it
		lb.out = make([]mem.ObjectID, k)
	}
	return lb.out[:k]
}

// lcsDP is LCS over the reusable DP table, for an a longer than one
// kernel word. It walks two row slices of the flat (n+1)×(m+1) table and
// carries the row-running "left" value in a register.
func (lb *lcsBuf) lcsDP(a, b []mem.ObjectID) []mem.ObjectID {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return nil
	}
	need := (n + 1) * (m + 1)
	if cap(lb.dp) < need {
		lb.dp = make([]uint32, need)
	} else {
		// Reuse the table: only row 0 and column 0 are read before being
		// written, so clearing just those O(n+m) cells resets it.
		lb.dp = lb.dp[:need]
		clear(lb.dp[:m+1])
		for i := 1; i <= n; i++ {
			lb.dp[i*(m+1)] = 0
		}
	}
	dp := lb.dp
	for i := 1; i <= n; i++ {
		ai := a[i-1]
		prev := dp[(i-1)*(m+1) : i*(m+1)]
		row := dp[i*(m+1) : (i+1)*(m+1)]
		var left uint32 // at(i, j-1)
		for j := 1; j <= m; j++ {
			v := prev[j] // at(i-1, j): ties prefer advancing b
			if ai == b[j-1] {
				v = prev[j-1] + 1
			} else if left > v {
				v = left
			}
			row[j] = v
			left = v
		}
	}
	// Traceback indexes the flat table directly (w = row stride).
	w := m + 1
	k := int(dp[n*w+m])
	out := lb.outBuf(k)
	for i, j := n, m; i > 0 && j > 0; {
		switch {
		case a[i-1] == b[j-1]:
			k--
			out[k] = a[i-1]
			i--
			j--
		case dp[(i-1)*w+j] >= dp[i*w+j-1]:
			i--
		default:
			j--
		}
	}
	return out
}

// dedupe is dedupeOrdered into the buffer's members slice, valid until
// the next call. An LCS of two windows has at most a window's worth of
// members, so a scan of the members kept so far beats hashing them.
//
//prefix:hotpath
func (lb *lcsBuf) dedupe(seq []mem.ObjectID) []mem.ObjectID {
	out := lb.members[:0]
next:
	for _, o := range seq {
		for _, m := range out {
			if m == o {
				continue next
			}
		}
		//lint:ignore hotalloc the members buffer grows to the high-water mark once, then appends stay within its capacity
		out = append(out, o)
	}
	lb.members = out
	return out
}

// MineLCS mines hot data streams from a (hot-filtered, collapsed)
// reference string using windowed LCS. The window-pair loop allocates
// only when it meets a new candidate stream.
func MineLCS(refs []mem.ObjectID, cfg Config) []Stream {
	w := cfg.Window
	if w <= 0 {
		w = 64
	}
	if len(refs) < 2*w {
		// Short profile: one LCS of the two halves still finds the
		// repeating core.
		half := len(refs) / 2
		if half < cfg.MinLength {
			return nil
		}
		// Both halves are shorter than the window, so a window of at most
		// 64 puts this pair through the bit-parallel kernel too.
		sub := LCS(refs[:half], refs[half:])
		// dedupeOrdered never mutates its input, so sub is passed directly.
		if len(dedupeOrdered(sub)) < cfg.MinLength {
			return nil
		}
		return rankAndTrim([]Stream{{Objects: sub, Heat: 2 * uint64(len(sub))}}, cfg)
	}

	// Candidate accumulation across window pairs at multiple lags.
	type acc struct {
		stream Stream
		count  uint64
	}
	cands := make(map[string]*acc)
	var order []string
	var lb lcsBuf // one set of buffers reused across every window pair

	lags := cfg.Lags
	if len(lags) == 0 {
		lags = []int{1}
	}
	windows := len(refs) / w
	// Bound total LCS work: long profiles are sampled by striding the
	// anchor window. Each LCS costs O(W) word operations for the kernel
	// (O(W²) for the DP above 64), so ~20k pairs keeps mining fast
	// regardless of trace length.
	const maxPairs = 20000
	step := 1
	if windows*len(lags) > maxPairs {
		step = (windows*len(lags) + maxPairs - 1) / maxPairs
	}
	for i := 0; i < windows; i += step {
		lb.setAnchor(refs[i*w : (i+1)*w]) // one match-mask table serves every lag
		for _, lag := range lags {
			j := i + lag
			if lag <= 0 || j >= windows {
				continue
			}
			sub := lb.lcsWith(refs[j*w : (j+1)*w])
			if len(sub) < cfg.MinLength {
				continue // deduplication only shrinks it
			}
			members := lb.dedupe(sub)
			if len(members) < cfg.MinLength {
				continue
			}
			lb.key = appendKey(lb.key[:0], members)
			if c, ok := cands[string(lb.key)]; ok {
				c.count++
				continue
			}
			k := string(lb.key)
			cands[k] = &acc{stream: Stream{Objects: append([]mem.ObjectID(nil), members...)}, count: 1}
			order = append(order, k)
		}
	}

	var out []Stream
	for _, k := range order {
		c := cands[k]
		freq := c.count + 1 // a match between two windows = 2 occurrences
		if int(freq) < cfg.MinFrequency {
			continue
		}
		s := c.stream
		s.Heat = freq * uint64(len(s.Objects))
		out = append(out, s)
	}
	return rankAndTrim(out, cfg)
}

// WeighByAccesses rescales stream heat by the total access counts of the
// member objects, producing the "descending order of memory references"
// ranking Algorithm 1 expects. accesses maps object → access count from
// the trace analysis.
func WeighByAccesses(streams []Stream, accesses map[mem.ObjectID]uint64) []Stream {
	out := make([]Stream, len(streams))
	copy(out, streams)
	for i := range out {
		var total uint64
		for _, o := range out[i].Objects {
			total += accesses[o]
		}
		out[i].Heat = total
	}
	// Stable to preserve miner order on ties.
	sortStreamsByHeat(out)
	return out
}

func sortStreamsByHeat(s []Stream) {
	// simple stable insertion by heat desc (stream lists are small)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Heat > s[j-1].Heat; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
