package scenario

import "time"

// stage is the mission runner's one handoff primitive: jobs go in
// tick-stamped, a work function turns each into a result, and results
// come back to the control loop in submission order at their due tick.
// Perception and staged planning are both stages.
//
// A concurrent stage runs work on its own goroutine; at a job's due tick
// the control loop blocks until the result is there. The block keeps
// delivery deterministic — a result applies at its stamped tick, never
// when the scheduler happens to finish it — so a mission stays a pure
// function of (seed, Spec) at any GOMAXPROCS; its duration is the stall
// the stage costs the control loop. A synchronous stage runs work on the
// control loop at submit time instead: with a delivery latency of zero
// that is the historical inline order exactly.
//
// At most one job per tick is outstanding for at most k ticks, so k+2
// bounds both FIFOs and neither side ever blocks on a full channel.
type stage[J, R any] struct {
	work    func(J) R
	lag     int
	jobs    chan J // nil for a synchronous stage
	results chan stageResult[R]

	// due is a circular queue of the outstanding jobs' delivery ticks in
	// submission order; results keep that order, so the head always
	// belongs to the next result.
	due     []int
	head, n int

	// delivered counts results taken by next; busyNs sums the work's
	// wall-clock cost (drained results included) and stallNs the control
	// loop's time blocked in next. Reporting only: wall clocks never
	// reach a Result.
	delivered, busyNs, stallNs int64
}

// stageResult is one job's result and the wall-clock cost of computing it.
type stageResult[R any] struct {
	r  R
	ns int64
}

// newStage returns a stage delivering each job lag ticks after its
// submission, with work on its own goroutine when concurrent.
func newStage[J, R any](lag int, concurrent bool, work func(J) R) *stage[J, R] {
	st := &stage[J, R]{
		work:    work,
		lag:     lag,
		results: make(chan stageResult[R], lag+2),
		due:     make([]int, lag+2),
	}
	if concurrent {
		st.jobs = make(chan J, lag+2)
		go st.run()
	}
	return st
}

// run is the stage goroutine: sequential, in-order work. It closes
// results when jobs closes, so shutdown can drain.
func (st *stage[J, R]) run() {
	for j := range st.jobs {
		st.results <- st.do(j)
	}
	close(st.results)
}

func (st *stage[J, R]) do(j J) stageResult[R] {
	t0 := time.Now()
	r := st.work(j)
	return stageResult[R]{r: r, ns: time.Since(t0).Nanoseconds()}
}

// submit queues job j, submitted at tick, for delivery at tick+lag.
func (st *stage[J, R]) submit(j J, tick int) {
	st.due[(st.head+st.n)%len(st.due)] = tick + st.lag
	st.n++
	if st.jobs == nil {
		st.results <- st.do(j)
		return
	}
	st.jobs <- j
}

// ready reports whether the oldest outstanding job is due at tick i.
func (st *stage[J, R]) ready(i int) bool { return st.n > 0 && st.due[st.head] <= i }

// next takes the oldest outstanding result, blocking until it exists.
func (st *stage[J, R]) next() R {
	st.head = (st.head + 1) % len(st.due)
	st.n--
	t0 := time.Now()
	res := <-st.results
	st.stallNs += time.Since(t0).Nanoseconds()
	st.busyNs += res.ns
	st.delivered++
	return res.r
}

// shutdown retires the stage: no more jobs, and results still in flight
// (a mission that ended with work queued) are drained into busyNs. After
// it returns the stage goroutine has stopped touching the mission.
func (st *stage[J, R]) shutdown() {
	if st.jobs != nil {
		close(st.jobs)
	} else {
		close(st.results)
	}
	for res := range st.results {
		st.busyNs += res.ns
	}
}
