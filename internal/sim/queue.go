package sim

// Queue is an indexed min-heap of int32 slots keyed by (time, seq), the
// simulator's one priority queue: an Engine keeps its event slots in one,
// and flow.Network keeps each flow's predicted completion in another.
//
// A slot holds at most one key, and the queue records each slot's heap
// position, so Set moves a queued slot's key in place and Remove takes any
// slot out in O(log n); no stale entry is ever left behind to skip. Keys
// order by time, then seq. Callers keep seqs unique, which makes the pop
// order a strict total order that no heap layout can change. The heap is
// 4-ary: half the depth of a binary heap, over four adjacent int32
// children, which pays because sift-downs dominate a pop-heavy queue. The
// per-slot arrays grow to the largest slot set; steady-state use
// allocates nothing.
type Queue struct {
	at   []Time
	seq  []uint64
	pos  []int32 // each slot's heap position, -1 when not queued
	heap []int32
}

// Len reports the number of queued slots.
func (q *Queue) Len() int { return len(q.heap) }

// Contains reports whether slot is queued.
func (q *Queue) Contains(slot int32) bool {
	return slot >= 0 && int(slot) < len(q.pos) && q.pos[slot] >= 0
}

// Head returns the least slot and its time, or (-1, Infinity) when the
// queue is empty.
func (q *Queue) Head() (int32, Time) {
	if len(q.heap) == 0 {
		return -1, Infinity
	}
	s := q.heap[0]
	return s, q.at[s]
}

// Pop removes and returns the least slot and its time, or (-1, Infinity)
// when the queue is empty.
func (q *Queue) Pop() (int32, Time) {
	s, at := q.Head()
	if s >= 0 {
		q.Remove(s)
	}
	return s, at
}

// Set queues a non-negative slot under the key (at, seq), or moves it
// there if it is already queued.
func (q *Queue) Set(slot int32, at Time, seq uint64) {
	for int(slot) >= len(q.pos) {
		q.at = append(q.at, 0)
		q.seq = append(q.seq, 0)
		q.pos = append(q.pos, -1)
	}
	q.at[slot], q.seq[slot] = at, seq
	if p := q.pos[slot]; p >= 0 {
		q.fix(int(p))
		return
	}
	q.pos[slot] = int32(len(q.heap))
	q.heap = append(q.heap, slot)
	q.up(len(q.heap) - 1)
}

// Remove takes slot out of the queue; a slot not queued is ignored.
func (q *Queue) Remove(slot int32) {
	if !q.Contains(slot) {
		return
	}
	i := int(q.pos[slot])
	last := len(q.heap) - 1
	if i != last {
		q.swap(i, last)
	}
	q.heap = q.heap[:last]
	q.pos[slot] = -1
	if i != last {
		q.fix(i)
	}
}

// less is the strict (time, seq) order between two queued slots.
func (q *Queue) less(a, b int32) bool {
	if q.at[a] != q.at[b] {
		return q.at[a] < q.at[b]
	}
	return q.seq[a] < q.seq[b]
}

// swap exchanges two heap positions, repairing the slots' back-pointers.
func (q *Queue) swap(i, j int) {
	h := q.heap
	h[i], h[j] = h[j], h[i]
	q.pos[h[i]] = int32(i)
	q.pos[h[j]] = int32(j)
}

// up sifts position i toward the root and returns its final position.
func (q *Queue) up(i int) int {
	for i > 0 {
		p := (i - 1) >> 2
		if !q.less(q.heap[i], q.heap[p]) {
			break
		}
		q.swap(i, p)
		i = p
	}
	return i
}

// down sifts position i toward the leaves.
func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		c := 4*i + 1
		if c >= n {
			return
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if q.less(q.heap[j], q.heap[m]) {
				m = j
			}
		}
		if !q.less(q.heap[m], q.heap[i]) {
			return
		}
		q.swap(i, m)
		i = m
	}
}

// fix restores heap order at position i after its key moved either way.
func (q *Queue) fix(i int) {
	if q.up(i) == i {
		q.down(i)
	}
}
