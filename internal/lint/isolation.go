package lint

import (
	"go/types"
)

// isolationTrusted is the set of packages that legitimately sit below
// the TLB line: the physical-memory arena itself, the device models
// that implement translation, and the hardware blocks (DMA engines,
// accelerators, packet pipelines) whose job is to model owner-checked
// access. Everything else — experiments, NFs, the fleet control plane,
// commands, examples — must reach NF backing memory only through the
// owner-checked entry points (snic NFRead/NFWrite/MgmtRead/MgmtWrite or
// the device.NIC API), never by grabbing the raw arena.
var isolationTrusted = map[string]bool{
	"snic/internal/mem":    true,
	"snic/internal/snic":   true,
	"snic/internal/device": true,
	"snic/internal/pktio":  true,
	"snic/internal/accel":  true,
	"snic/internal/dma":    true,
}

// physicalPorts are the mem.Physical methods that move or claim bytes:
// the raw data ports and the ownership operations. Geometry readers
// (Size, FrameSize, NumFrames) are not sinks — they leak no
// tenant data — but note that obtaining the *Physical handle at all is
// already flagged, so untrusted code cannot reach them either.
var physicalPorts = map[string]bool{
	"Read":       true,
	"Write":      true,
	"WriteU64":   true,
	"Alloc":      true,
	"AllocBytes": true,
	"ReleaseAll": true,
}

// IsolationBoundary is the static analogue of the paper's DMA/TLB
// isolation argument: on real S-NIC hardware an NF physically cannot
// address another tenant's frames, because every access goes through
// the per-NF locked TLB. In the simulator the arena is one Go object,
// so nothing but discipline stops a harness from reaching around the
// translation path — this check is that discipline. Any call chain
// from untrusted code that obtains Device.Memory() or touches a
// mem.Physical data/ownership port is a finding, with the chain
// printed, so the bypass is visible even when it hides behind three
// helpers.
type IsolationBoundary struct{}

func (IsolationBoundary) Name() string { return "isolation-boundary" }

func (IsolationBoundary) Doc() string {
	return "forbid raw backing-memory access (Device.Memory, mem.Physical ports) outside the trusted device layer"
}

func (c IsolationBoundary) RunProgram(prog *Program) []Diagnostic {
	g := prog.Graph()
	isRoot := func(n *Node) bool {
		return n.Pkg != nil && !isolationTrusted[n.Pkg.Path] && n.Exported()
	}
	var diags []Diagnostic
	for _, n := range g.Nodes {
		if n.Pkg == nil || isolationTrusted[n.Pkg.Path] {
			continue
		}
		for _, e := range n.Out {
			msg := c.sinkMessage(e)
			if msg == "" {
				continue
			}
			diags = append(diags, Diagnostic{
				Check: c.Name(), Pos: e.Pos, Message: msg,
				Path: CallPath(g.PathFromRoot(n, isRoot), e.To),
			})
		}
	}
	return diags
}

// sinkMessage classifies edge e: a non-empty return is the finding's
// message.
func (IsolationBoundary) sinkMessage(e *CallEdge) string {
	fn := e.To.Fn
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	switch {
	case fn.Pkg().Path() == "snic/internal/mem" &&
		namedRecvName(sig.Recv().Type()) == "Physical" && physicalPorts[fn.Name()]:
		return "raw memory port " + e.To.Name +
			" outside the trusted device layer: NF frames are only legal through owner-checked NFRead/NFWrite/MgmtRead/MgmtWrite"
	case fn.Pkg().Path() == "snic/internal/snic" && fn.Name() == "Memory":
		return "obtains the raw backing store via " + e.To.Name +
			" outside the trusted device layer: use the owner-checked snic entry points or the device.NIC API"
	}
	return ""
}

var _ ProgramCheck = IsolationBoundary{}
