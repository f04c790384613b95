package hashutil

// SumRuns sets sums[i] to the SHA-1 of runs[i]'s parts concatenated; sums
// must be as long as runs. Where the CPU has the lane kernel it hashes up to
// 16 runs at once, and every digest is the one SumBytes gives the joined
// bytes (DESIGN §12a).
func SumRuns(runs [][][]byte, sums []Sum) {
	if useLanes && len(runs) >= minLanes {
		s := lanes{runs: runs, sums: sums, busy: min(len(runs), 16)}
		s.sum()
		return
	}
	for i, run := range runs {
		if len(run) == 1 {
			sums[i] = SumBytes(run[0])
			continue
		}
		h := NewHasher()
		for _, p := range run {
			h.Write(p)
		}
		sums[i] = h.Sum()
	}
}

// minLanes is the fewest busy lanes worth a call to blocks16: fewer runs
// than this, and the last few of any call, are hashed one at a time.
const minLanes = 4

// lanes is SumRuns' scheduler. Lanes 0 to busy-1 each hash a run; blocks16
// takes them all, chaining words in h's columns, from a block boundary of
// each one's current part for as many whole blocks as every one has ahead.
// The rest — a block across two parts, each run's padding — goes through
// the lane's digest, on the one-message kernel.
type lanes struct {
	h [5][16]uint32
	p [16]*byte
	l [16]struct {
		out  *Sum     // where the run in hand's digest goes; nil before the first
		cur  []byte   // what is left of its current part
		rest [][]byte // the parts after that
		d    digest   // the run's length so far and any block in the making
	}
	busy, next int
	runs       [][][]byte
	sums       []Sum
}

func (s *lanes) sum() {
	for {
		for i := 0; i < s.busy; i++ {
			if len(s.l[i].cur) < 64 && !s.feed(i) {
				s.busy-- // no run left for lane i: the last busy lane takes its place
				s.l[i] = s.l[s.busy]
				for w := range s.h {
					s.h[w][i] = s.h[w][s.busy]
				}
				i--
			}
		}
		if s.busy < minLanes {
			break
		}
		n := len(s.l[0].cur)
		for i := range s.busy {
			n = min(n, len(s.l[i].cur))
		}
		for i := range s.p {
			s.p[i] = &s.l[min(i, s.busy-1)].cur[0] // an idle lane repeats a busy one
		}
		blocks16(&s.h, &s.p, n/64)
		for i := range s.busy {
			s.l[i].cur, s.l[i].d.len = s.l[i].cur[n&^63:], s.l[i].d.len+uint64(n&^63)
		}
	}
	for s.busy > 0 {
		s.busy--
		s.feed(s.busy)
	}
}

// feed runs lane i on its digest until it can go back to blocks16, finishing
// runs and starting the next on the way, and reports false once none is left
// to start. With fewer than minLanes busy and none left to start, it
// finishes the lane's run on the digest.
func (s *lanes) feed(i int) bool {
	l := &s.l[i]
	for w := range s.h {
		l.d.h[w] = s.h[w][i]
	}
	for {
		switch {
		case len(l.cur) >= 64 && l.d.nx == 0 && (s.busy >= minLanes || s.next < len(s.runs)):
			for w := range s.h {
				s.h[w][i] = l.d.h[w]
			}
			return true
		case len(l.cur) > 0:
			n := len(l.cur)
			if l.d.nx > 0 {
				n = min(n, 64-l.d.nx) // complete the block in the making
			}
			l.d.write(l.cur[:n])
			l.cur = l.cur[n:]
		case len(l.rest) > 0:
			l.cur, l.rest = l.rest[0], l.rest[1:]
		default:
			if l.out != nil {
				*l.out = l.d.sum()
			}
			if s.next == len(s.runs) {
				return false
			}
			l.out, l.rest = &s.sums[s.next], s.runs[s.next]
			l.d.reset()
			s.next++
		}
	}
}
