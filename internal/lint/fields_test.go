package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fieldReasonForm matches the three reasons a field finding may be listed
// with: the ROADMAP item that will wire the mechanism in or delete it,
// the test of another package that needs the state as an oracle, or the
// test that injects a fake through a setting no program sets.
var fieldReasonForm = regexp.MustCompile(`^(item [0-9]+: |cross-package oracle: .+ checks |test seam: .+ injects ).+`)

// TestEveryFieldIsSetAndRead is the field-level twin of
// TestEveryFunctionIsReached. It counts the uses of every struct field
// declared outside bench in the code the shipped programs reach, and
// fails on two kinds of field that testdata/fields.txt does not list:
// an unset field, which that code reads and never writes, and
// write-only state, which that code keeps updating after construction
// and never reads. A stale line fails it too.
func TestEveryFieldIsSetAndRead(t *testing.T) {
	s := loadModule(t)
	var got []string
	for _, f := range fieldFindings(s) {
		got = append(got, f.name)
		t.Logf("%s: %s", f.name, f.kind)
	}
	checkList(t, filepath.Join("testdata", "fields.txt"), fieldReasonForm, got,
		"is an unset field or write-only state of the shipped programs: set and read it from one, delete it, or list it with a reason in")
}

// TestFieldShapes runs the field analysis on testdata/fieldfix, whose
// internal/shapes package declares one field per counted shape.
func TestFieldShapes(t *testing.T) {
	const root = "testdata/fieldfix"
	loader := NewLoader("snic", root)
	pkgs, err := loader.LoadPatterns(nil)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	var got []string
	for _, f := range fieldFindings(reachShipped(loader.Fset, pkgs)) {
		got = append(got, f.name+" "+f.kind)
	}
	want := []string{
		"internal/shapes.Shapes.Appended write-only",
		"internal/shapes.Shapes.Counted write-only",
		"internal/shapes.Shapes.Deleted write-only",
		"internal/shapes.Shapes.Element write-only",
		"internal/shapes.Shapes.Hidden unset",
		"internal/shapes.Shapes.Never unset",
		"internal/shapes.Shapes.OpAssigned write-only",
		"internal/shapes.Shapes.Ranged write-only",
		"internal/shapes.Shapes.Sub write-only",
		"internal/shapes.Shapes.TestSet unset",
		"internal/shapes.sub.N write-only",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestFieldReasonForms pins the three accepted reason forms.
func TestFieldReasonForms(t *testing.T) {
	for _, c := range []struct {
		line string
		ok   bool
	}{
		{"internal/x.T.F  item 7: the upload path", true},
		{"internal/x.T.F  cross-package oracle: y's TestZ checks an invariant", true},
		{"internal/x.T.F  test seam: x's TestZ injects a fake clock", true},
		{"internal/x.T.F  test seam: x's TestZ", false},
		{"internal/x.T.F  counter", false},
	} {
		if _, bad := parseList(c.line+"\n", fieldReasonForm); (len(bad) == 0) != c.ok {
			t.Errorf("%q: accepted %v, want %v (%v)", c.line, len(bad) == 0, c.ok, bad)
		}
	}
}

// fieldFinding is one field the shipped programs read but never write
// ("unset") or update but never read ("write-only").
type fieldFinding struct {
	name, kind string
}

// fieldUse records how the shipped programs use one field. A
// composite-literal key or position sets written; an assignment,
// op-assignment, ++/--, append, delete or taken address sets written
// and updated.
type fieldUse struct {
	written, updated, read bool
}

// fieldFindings names every unset field and every piece of write-only
// state among the struct fields declared in the production files of
// s.pkgs outside bench, counting the uses in the bodies of reached
// functions and the initializers of reached packages. Embedded fields
// are not counted. A field with a json tag counts as read and written:
// encoding/json fills it on decode and reads it on encode.
func fieldFindings(s *shipped) []fieldFinding {
	n := &fieldNamer{names: make(map[*types.Var]string), uses: make(map[*types.Var]*fieldUse)}
	for _, p := range s.pkgs {
		rel := strings.TrimPrefix(p.Path, "snic/")
		if p.TypesInfo == nil || rel == "bench" {
			continue
		}
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				prefix := rel
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if fn, ok := p.TypesInfo.Defs[d.Name].(*types.Func); ok {
						prefix = rel + "." + strings.TrimPrefix(funcDisplayName(fn), displayPkg(p.Path)+".")
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR && len(d.Specs) > 0 {
						prefix += "." + d.Specs[0].(*ast.ValueSpec).Names[0].Name
					}
				}
				n.name(p.TypesInfo, prefix, decl)
			}
		}
	}

	for _, p := range s.pkgs {
		if p.TypesInfo == nil {
			continue
		}
		c := &fieldCounter{info: p.TypesInfo, uses: n.uses}
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := p.TypesInfo.Defs[d.Name].(*types.Func)
					if d.Body != nil && fn != nil && s.reached[s.graph.byFn[fn]] {
						c.walk(d.Body)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR && s.reached[s.graph.byInit[p.Path]] {
						c.walk(d)
					}
				}
			}
		}
	}

	var out []fieldFinding
	for v, name := range n.names {
		u := n.uses[v]
		switch {
		case u.read && !u.written:
			out = append(out, fieldFinding{name, "unset"})
		case u.updated && !u.read:
			out = append(out, fieldFinding{name, "write-only"})
		}
	}
	slices.SortFunc(out, func(a, b fieldFinding) int { return strings.Compare(a.name, b.name) })
	return out
}

// fieldNamer names the counted fields and holds their use records.
type fieldNamer struct {
	names map[*types.Var]string
	uses  map[*types.Var]*fieldUse
	anon  []*types.Struct // anonymous struct types named so far
}

// name names the fields of every struct type declared inside n:
// prefix.Type.Field for a named type, prefix.field for an anonymous
// struct, and prefix.Type.field.inner for a struct nested in a field's
// type. Each spelling of an anonymous struct type declares new field
// objects, so the fields of an identical, already named one share its
// records. A json-tagged field starts read and written.
func (nm *fieldNamer) name(info *types.Info, prefix string, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.TypeSpec:
			nm.name(info, prefix+"."+x.Name.Name, x.Type)
			return false
		case *ast.StructType:
			st, _ := info.TypeOf(x).(*types.Struct)
			if st == nil {
				return false
			}
			for _, a := range nm.anon {
				if types.Identical(a, st) {
					for i := 0; i < st.NumFields(); i++ {
						nm.uses[st.Field(i)] = nm.uses[a.Field(i)]
					}
					return false
				}
			}
			nm.anon = append(nm.anon, st)
			for _, fld := range x.Fields.List {
				for _, id := range fld.Names {
					v, ok := info.Defs[id].(*types.Var)
					if !ok || id.Name == "_" {
						continue
					}
					nm.names[v] = prefix + "." + id.Name
					u := &fieldUse{}
					if fld.Tag != nil {
						tag, _ := strconv.Unquote(fld.Tag.Value)
						if j, ok := reflect.StructTag(tag).Lookup("json"); ok && j != "-" {
							u.written, u.read = true, true
						}
					}
					nm.uses[v] = u
					nm.name(info, prefix+"."+id.Name, fld.Type)
				}
			}
			return false
		}
		return true
	})
}

// fieldCounter records the field uses in one package's code.
type fieldCounter struct {
	info *types.Info
	uses map[*types.Var]*fieldUse
}

// use returns the record of v, or nil when v is not a counted field.
func (c *fieldCounter) use(v *types.Var) *fieldUse {
	if v == nil {
		return nil
	}
	return c.uses[v.Origin()]
}

// field returns the field a selector selects, or nil.
func (c *fieldCounter) field(sel *ast.SelectorExpr) *types.Var {
	if s := c.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		return s.Obj().(*types.Var)
	}
	return nil
}

// walk counts every field use in n: a read unless one of the write
// shapes below claims it.
func (c *fieldCounter) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if x.Tok != token.DEFINE {
					c.write(lhs)
				}
			}
			for i, rhs := range x.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if ok && len(x.Lhs) == len(x.Rhs) && c.builtin(call, "append") &&
					types.ExprString(call.Args[0]) == types.ExprString(x.Lhs[i]) {
					// x.f = append(x.f, …) grows f without reading it.
					for _, a := range call.Args[1:] {
						c.walk(a)
					}
					continue
				}
				c.walk(rhs)
			}
			return false
		case *ast.IncDecStmt:
			c.write(x.X)
			return false
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				c.write(x.Key)
				c.write(x.Value)
				c.walk(x.X)
				c.walk(x.Body)
				return false
			}
		case *ast.CallExpr:
			if c.builtin(x, "delete") {
				c.write(x.Args[0])
				c.walk(x.Args[1])
				return false
			}
			if fn := calleeOf(c.info, x.Fun); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				for _, a := range x.Args {
					c.printed(c.info.TypeOf(a), true, make(map[types.Type]bool))
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				c.write(x.X) // &x.f; the walk below also reads it
			}
		case *ast.SliceExpr:
			if _, array := c.info.TypeOf(x.X).Underlying().(*types.Array); array {
				c.write(x.X) // x.f[:] takes &x.f
			}
		case *ast.CompositeLit:
			st, _ := derefUnder(c.info.TypeOf(x)).(*types.Struct)
			if st == nil {
				return true
			}
			for i, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						if u := c.use(asVar(c.info.Uses[key])); u != nil {
							u.written = true
						}
					}
					c.walk(kv.Value)
					continue
				}
				if u := c.use(st.Field(i)); u != nil {
					u.written = true
				}
				c.walk(elt)
			}
			return false
		case *ast.SelectorExpr:
			s := c.info.Selections[x]
			if s == nil {
				return true
			}
			switch s.Kind() {
			case types.FieldVal:
				if u := c.use(s.Obj().(*types.Var)); u != nil {
					u.read = true
				}
			case types.MethodVal:
				// x.f.M with a pointer receiver takes &x.f implicitly:
				// x.mu.Lock(), x.once.Do(…), x.clk.Tick(…).
				sig := s.Obj().Type().(*types.Signature)
				if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
					if _, isPtr := c.info.TypeOf(x.X).Underlying().(*types.Pointer); !isPtr {
						c.write(x.X)
					}
				}
			}
		}
		return true
	})
}

// write marks the field an assignment target names as updated, with
// every field on the path to it: x.f.g = v and x.f[i] = v update f, and
// neither reads it. Index expressions on the path are read.
func (c *fieldCounter) write(e ast.Expr) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		c.write(x.X)
	case *ast.IndexExpr:
		c.write(x.X)
		c.walk(x.Index)
	case *ast.SelectorExpr:
		v := c.field(x)
		if v == nil {
			c.walk(x)
			return
		}
		if u := c.use(v); u != nil {
			u.written, u.updated = true, true
		}
		if _, ptr := c.info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
			c.walk(x.X) // x.p.g = v writes the pointee and reads p
			return
		}
		c.write(x.X)
	default:
		if e != nil {
			c.walk(e)
		}
	}
}

// printed marks read every field that fmt renders for a value of type
// t: the fields of a struct, of the structs it holds by value, and of
// the elements of its slices, arrays and maps. A type with a String or
// Error method renders itself, and fmt prints a nested pointer as an
// address.
func (c *fieldCounter) printed(t types.Type, top bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	for _, m := range []string{"String", "Error"} {
		if obj, _, _ := types.LookupFieldOrMethod(t, false, nil, m); obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		if top {
			c.printed(u.Elem(), false, seen)
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if fu := c.use(u.Field(i)); fu != nil {
				fu.read = true
			}
			c.printed(u.Field(i).Type(), false, seen)
		}
	case *types.Slice:
		c.printed(u.Elem(), false, seen)
	case *types.Array:
		c.printed(u.Elem(), false, seen)
	case *types.Map:
		c.printed(u.Key(), false, seen)
		c.printed(u.Elem(), false, seen)
	}
}

// builtin reports whether call calls the named builtin.
func (c *fieldCounter) builtin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name || len(call.Args) == 0 {
		return false
	}
	_, ok = c.info.Uses[id].(*types.Builtin)
	return ok
}

// derefUnder returns the underlying type of t, through one pointer.
func derefUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem().Underlying()
	}
	return t.Underlying()
}

// asVar returns obj as a variable, or nil.
func asVar(obj types.Object) *types.Var {
	v, _ := obj.(*types.Var)
	return v
}
