// Package pktio models the packet ingress/egress hardware of the NIC and
// S-NIC's virtual packet pipelines (VPPs, §4.4).
//
// A VPP bundles: reserved buffer space in the physical RX and TX ports, a
// packet-scheduler unit whose locked TLB only reaches the owning NF's
// packet-buffer ring, and the switching rules that steer matching frames
// (by 5-tuple predicate and/or VXLAN VNI) into that ring. Rules live in
// memory that nf_launch denylists, so neither other NFs nor the NIC OS can
// redirect a function's traffic after launch.
package pktio

import (
	"fmt"
	"strconv"

	"snic/internal/mem"
	"snic/internal/obs"
	"snic/internal/pkt"
	"snic/internal/tlb"
)

// MatchSpec is a switching-rule predicate over the (inner) frame.
type MatchSpec struct {
	VNI       uint32 // 0 = any
	SrcIP     uint32
	SrcMask   uint32
	DstIP     uint32
	DstMask   uint32
	Proto     uint8 // 0 = any
	DstPortLo uint16
	DstPortHi uint16 // 0,0 = any
}

// Matches reports whether p satisfies the predicate.
func (m MatchSpec) Matches(p *pkt.Packet) bool {
	if m.VNI != 0 && p.VNI != m.VNI {
		return false
	}
	if p.Tuple.SrcIP&m.SrcMask != m.SrcIP&m.SrcMask {
		return false
	}
	if p.Tuple.DstIP&m.DstMask != m.DstIP&m.DstMask {
		return false
	}
	if m.Proto != 0 && m.Proto != p.Tuple.Proto {
		return false
	}
	if m.DstPortLo == 0 && m.DstPortHi == 0 {
		return true
	}
	return p.Tuple.DstPort >= m.DstPortLo && p.Tuple.DstPort <= m.DstPortHi
}

// Rule steers matching frames to an NF's VPP.
type Rule struct {
	Spec   MatchSpec
	Target mem.Owner
}

// Descriptor records one delivered frame in a VPP's receive queue (the
// PDB of Table 7's buffer inventory).
type Descriptor struct {
	VA  tlb.VAddr // where the frame was written in the NF's address space
	Len int
}

// VPP is a virtual packet pipeline.
type VPP struct {
	Owner   mem.Owner
	RXBytes uint64
	TXBytes uint64

	sched    *tlb.Bank // scheduler-unit TLB: locked to the NF's buffers
	ringBase tlb.VAddr
	slots    int
	slotSize int
	head     int // next slot to fill
	queue    []Descriptor

	// obs handles (per-tenant packet/byte accounting); nil until the
	// owning Switch is observed.
	obsRxPkts, obsRxBytes, obsRxDrops *obs.Counter
	obsTxPkts, obsTxBytes             *obs.Counter
	obsFrameBytes                     *obs.Histogram
}

// Switch is the packet input/output module pair plus rule table.
type Switch struct {
	pm         *mem.Physical
	rxCapacity uint64
	txCapacity uint64
	rxReserved uint64
	txReserved uint64
	rules      []Rule
	vpps       map[mem.Owner]*VPP

	// obs state; zero until Observe attaches a collector. VPPs created
	// afterwards pick up per-tenant counters in CreateVPP.
	obsReg     *obs.Registry
	obsDevice  string
	obsNoMatch *obs.Counter
}

// NewSwitch builds the ingress/egress hardware with the given physical
// RX/TX buffer capacities (LiquidIO-class parts have a few MB each).
func NewSwitch(pm *mem.Physical, rxCapacity, txCapacity uint64) *Switch {
	return &Switch{
		pm:         pm,
		rxCapacity: rxCapacity,
		txCapacity: txCapacity,
		vpps:       make(map[mem.Owner]*VPP),
	}
}

// Observe attaches per-tenant packet/byte counters to reg under the
// given device label (component "pktio"). Pipelines created after the
// call are instrumented per owner; a nil reg leaves the switch
// detached. Call before CreateVPP.
func (s *Switch) Observe(reg *obs.Registry, device string) {
	if reg == nil {
		return
	}
	s.obsReg = reg
	s.obsDevice = device
	s.obsNoMatch = reg.Counter(obs.Label{Device: device, Owner: "-", Component: "pktio", Name: "no_match"})
}

// CreateVPP reserves rx/tx buffer space and builds the scheduler unit for
// owner. schedEntries must map the NF's packet ring; they are locked
// immediately. ringBase/slots/slotSize describe the ring inside the NF's
// address space. Fails (atomically) if port space is exhausted.
func (s *Switch) CreateVPP(owner mem.Owner, rxBytes, txBytes uint64,
	schedEntries []tlb.Entry, ringBase tlb.VAddr, slots, slotSize int) (*VPP, error) {
	if _, dup := s.vpps[owner]; dup {
		return nil, fmt.Errorf("pktio: owner %d already has a VPP", owner)
	}
	if s.rxReserved+rxBytes > s.rxCapacity {
		return nil, fmt.Errorf("pktio: RX port full (%d of %d reserved)", s.rxReserved, s.rxCapacity)
	}
	if s.txReserved+txBytes > s.txCapacity {
		return nil, fmt.Errorf("pktio: TX port full (%d of %d reserved)", s.txReserved, s.txCapacity)
	}
	if slots <= 0 || slotSize <= 0 {
		return nil, fmt.Errorf("pktio: bad ring geometry %d x %d", slots, slotSize)
	}
	bank := tlb.NewBank(3) // PB + PDB + ODB, as sized in §5.2
	for _, e := range schedEntries {
		if err := bank.Install(e); err != nil {
			return nil, fmt.Errorf("pktio: scheduler TLB: %w", err)
		}
	}
	bank.Lock()
	v := &VPP{
		Owner: owner, RXBytes: rxBytes, TXBytes: txBytes,
		sched: bank, ringBase: ringBase, slots: slots, slotSize: slotSize,
	}
	if s.obsReg != nil {
		tenant := "nf" + strconv.Itoa(int(owner))
		l := func(name string) obs.Label {
			return obs.Label{Device: s.obsDevice, Owner: tenant, Component: "pktio", Name: name}
		}
		v.obsRxPkts = s.obsReg.Counter(l("rx_packets"))
		v.obsRxBytes = s.obsReg.Counter(l("rx_bytes"))
		v.obsRxDrops = s.obsReg.Counter(l("rx_dropped_full"))
		v.obsTxPkts = s.obsReg.Counter(l("tx_packets"))
		v.obsTxBytes = s.obsReg.Counter(l("tx_bytes"))
		v.obsFrameBytes = s.obsReg.Histogram(l("frame_bytes"))
	}
	s.rxReserved += rxBytes
	s.txReserved += txBytes
	s.vpps[owner] = v
	return v, nil
}

// DestroyVPP releases owner's pipeline and buffer reservations, dropping
// any queued descriptors (the memory itself is scrubbed by nf_teardown).
func (s *Switch) DestroyVPP(owner mem.Owner) bool {
	v, ok := s.vpps[owner]
	if !ok {
		return false
	}
	s.rxReserved -= v.RXBytes
	s.txReserved -= v.TXBytes
	delete(s.vpps, owner)
	// Remove the owner's switching rules too.
	rules := s.rules[:0]
	for _, r := range s.rules {
		if r.Target != owner {
			rules = append(rules, r)
		}
	}
	s.rules = rules
	return true
}

// AddRule appends a steering rule (installed by nf_launch from the
// pkt_pipeline_config argument).
func (s *Switch) AddRule(r Rule) error {
	if _, ok := s.vpps[r.Target]; !ok {
		return fmt.Errorf("pktio: rule targets owner %d with no VPP", r.Target)
	}
	s.rules = append(s.rules, r)
	return nil
}

// Deliver parses a wire frame, finds the first matching rule, and copies
// the frame into the target NF's ring via the scheduler TLB. It returns
// the receiving owner (mem.Free if the frame matched no rule or was
// dropped).
func (s *Switch) Deliver(frame []byte) (mem.Owner, error) {
	p, err := pkt.Parse(frame)
	if err != nil {
		return mem.Free, err
	}
	for _, r := range s.rules {
		if !r.Spec.Matches(&p) {
			continue
		}
		v := s.vpps[r.Target]
		if v == nil {
			continue
		}
		if err := v.push(s.pm, frame); err != nil {
			return mem.Free, err
		}
		return r.Target, nil
	}
	s.obsNoMatch.Inc()
	return mem.Free, nil
}

func (v *VPP) push(pm *mem.Physical, frame []byte) error {
	if len(v.queue) >= v.slots {
		v.obsRxDrops.Inc()
		return nil // tail drop, as hardware does
	}
	if len(frame) > v.slotSize {
		return fmt.Errorf("pktio: frame of %d bytes exceeds slot size %d", len(frame), v.slotSize)
	}
	va := v.ringBase + tlb.VAddr(v.head*v.slotSize)
	// The scheduler unit can only write where its locked TLB points.
	if err := v.sched.Span(va, len(frame), tlb.PermWrite, func(pa mem.Addr, off, n int) error {
		return pm.Write(pa, frame[off:off+n])
	}); err != nil {
		return fmt.Errorf("pktio: scheduler fault: %w", err)
	}
	v.queue = append(v.queue, Descriptor{VA: va, Len: len(frame)})
	v.head++
	if v.head == v.slots {
		v.head = 0
	}
	if v.obsRxPkts != nil {
		v.obsRxPkts.Inc()
		v.obsRxBytes.Add(uint64(len(frame)))
		v.obsFrameBytes.Observe(uint64(len(frame)))
	}
	return nil
}

// Pop dequeues the next received descriptor (ok=false when empty).
func (v *VPP) Pop() (Descriptor, bool) {
	if len(v.queue) == 0 {
		return Descriptor{}, false
	}
	d := v.queue[0]
	v.queue = v.queue[1:]
	return d, true
}

// ReadFrame copies a received frame out of the NF's memory through the
// scheduler TLB (what the packet-output module does on transmit).
func (v *VPP) ReadFrame(pm *mem.Physical, d Descriptor) ([]byte, error) {
	out := make([]byte, d.Len)
	if err := v.sched.Span(d.VA, d.Len, tlb.PermRead, func(pa mem.Addr, off, n int) error {
		return pm.Read(pa, out[off:off+n])
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Transmit reads a frame the NF placed at va and hands it to the wire
// callback, enforcing the TX reservation as flow control.
func (s *Switch) Transmit(owner mem.Owner, va tlb.VAddr, n int, wire func([]byte)) error {
	v := s.vpps[owner]
	if v == nil {
		return fmt.Errorf("pktio: owner %d has no VPP", owner)
	}
	if uint64(n) > v.TXBytes {
		return fmt.Errorf("pktio: frame of %d bytes exceeds TX reservation %d", n, v.TXBytes)
	}
	frame, err := v.ReadFrame(s.pm, Descriptor{VA: va, Len: n})
	if err != nil {
		return err
	}
	if v.obsTxPkts != nil {
		v.obsTxPkts.Inc()
		v.obsTxBytes.Add(uint64(n))
	}
	if wire != nil {
		wire(frame)
	}
	return nil
}

// PushLocal delivers a frame that arrived over the NIC-internal localhost
// path (§4.8 function chaining) rather than the wire. It uses the same
// ring, scheduler TLB, and tail-drop behaviour as wire delivery.
func (v *VPP) PushLocal(pm *mem.Physical, frame []byte) error {
	return v.push(pm, frame)
}
