package pktio

import "fmt"

// §4.4: the pkt_pipeline_config "specifies ... the desired packet
// scheduling algorithm [107, 110]". This file provides the scheduler
// algorithms an NF can request for its transmit path: multiple software
// queues inside one VPP, drained in an order the NF chose at launch.
// Because the scheduler unit belongs to a single VPP, its policy affects
// only the owner's own traffic — no cross-tenant channel exists here.

// SchedAlgo selects the transmit scheduling discipline.
type SchedAlgo int

// Supported disciplines.
const (
	SchedFIFO     SchedAlgo = iota // single queue, arrival order
	SchedPriority                  // strict priority, queue 0 highest
	SchedWRR                       // weighted round-robin across queues
)

func (a SchedAlgo) String() string {
	switch a {
	case SchedFIFO:
		return "fifo"
	case SchedPriority:
		return "priority"
	case SchedWRR:
		return "wrr"
	}
	return fmt.Sprintf("algo(%d)", int(a))
}

// TxItem is one queued transmit descriptor.
type TxItem struct {
	Desc  Descriptor
	Queue int
}

// TxScheduler orders an NF's outgoing descriptors across queues.
type TxScheduler struct {
	algo    SchedAlgo
	weights []int // WRR weights per queue
	queues  [][]Descriptor
	// WRR state.
	cur     int
	credits int
}

// NewTxScheduler builds a scheduler with nqueues queues. weights is only
// used by SchedWRR (defaults to equal weights); it must then have
// nqueues positive entries.
func NewTxScheduler(algo SchedAlgo, nqueues int, weights []int) (*TxScheduler, error) {
	if nqueues <= 0 {
		return nil, fmt.Errorf("pktio: need at least one tx queue")
	}
	if algo == SchedWRR {
		if weights == nil {
			weights = make([]int, nqueues)
			for i := range weights {
				weights[i] = 1
			}
		}
		if len(weights) != nqueues {
			return nil, fmt.Errorf("pktio: %d weights for %d queues", len(weights), nqueues)
		}
		for i, w := range weights {
			if w <= 0 {
				return nil, fmt.Errorf("pktio: weight %d of queue %d must be positive", w, i)
			}
		}
	}
	s := &TxScheduler{algo: algo, weights: weights, queues: make([][]Descriptor, nqueues)}
	if algo == SchedWRR {
		s.credits = weights[0]
	}
	return s, nil
}

// Enqueue adds a descriptor to queue q.
func (s *TxScheduler) Enqueue(q int, d Descriptor) error {
	if q < 0 || q >= len(s.queues) {
		return fmt.Errorf("pktio: queue %d out of range", q)
	}
	if s.algo == SchedFIFO && q != 0 {
		return fmt.Errorf("pktio: FIFO scheduler has a single queue")
	}
	s.queues[q] = append(s.queues[q], d)
	return nil
}

// Pending returns the total queued descriptors.
func (s *TxScheduler) Pending() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// Dequeue pops the next descriptor per the discipline.
func (s *TxScheduler) Dequeue() (TxItem, bool) {
	switch s.algo {
	case SchedFIFO:
		return s.popFrom(0)
	case SchedPriority:
		for q := range s.queues {
			if len(s.queues[q]) > 0 {
				return s.popFrom(q)
			}
		}
		return TxItem{}, false
	case SchedWRR:
		if s.Pending() == 0 {
			return TxItem{}, false
		}
		for {
			if len(s.queues[s.cur]) > 0 && s.credits > 0 {
				s.credits--
				return s.popFrom(s.cur)
			}
			s.cur = (s.cur + 1) % len(s.queues)
			s.credits = s.weights[s.cur]
		}
	}
	return TxItem{}, false
}

func (s *TxScheduler) popFrom(q int) (TxItem, bool) {
	if len(s.queues[q]) == 0 {
		return TxItem{}, false
	}
	d := s.queues[q][0]
	s.queues[q] = s.queues[q][1:]
	return TxItem{Desc: d, Queue: q}, true
}
