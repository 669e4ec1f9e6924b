package lint

import "go/ast"

// Factory enforces the device-construction discipline established by the
// unified device abstraction: every NIC model is built through the
// internal/device registry (device.New over a declarative Spec), so
// capability flags, conformance coverage, and the attack matrix see
// every device the same way. The commodity models live inside
// internal/device; the one constructor outside it, snic.New, is
// forbidden everywhere but there (tests may still construct the device
// directly to probe internals).
type Factory struct{}

func (Factory) Name() string { return "factory-discipline" }

func (Factory) Doc() string {
	return "forbid snic.New outside internal/device and tests"
}

// factoryPkg owns the constructor (New) reserved for the factory.
const factoryPkg = "snic/internal/snic"

func (c Factory) Run(p *Pass) []Diagnostic {
	if p.Pkg.Path == "snic/internal/device" {
		return nil // the factory itself is the one sanctioned call site
	}
	var diags []Diagnostic
	for _, f := range p.Pkg.Files {
		if f.Test {
			continue
		}
		local := importLocalName(f.AST, factoryPkg)
		if local == "" {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if sel.Sel.Name == "New" && p.pkgRef(id, factoryPkg, local) {
				diags = append(diags, p.diag(c.Name(), sel,
					"direct constructor %s.%s outside internal/device: build devices via device.New(device.Spec{...})",
					id.Name, sel.Sel.Name))
			}
			return true
		})
	}
	return diags
}
