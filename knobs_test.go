package lightllm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// knobAllowlist names the settable values that may go without a caller
// outside their own package, each with the reason it stays.
var knobAllowlist = map[string]string{
	"internal/core.PastFutureConfig.Deterministic": "ROADMAP 1(b)'s reserve/quantile frontier sweeps it; 1(d) decides whether it stays",
	"internal/core.PastFutureConfig.Quantile":      "ROADMAP 1(b)'s reserve/quantile frontier sweeps it; 1(d) decides whether it stays",
}

// typeRef names a declared type by its package directory (relative to the
// module root, "." for this package) and its name.
type typeRef struct{ dir, name string }

// knobFile is one parsed program file of the module.
type knobFile struct {
	dir string
	f   *ast.File
}

// TestEveryKnobHasACaller parses the module and fails for every exported
// field of an exported *Config struct (and of cluster.AutoScale) that no
// program file outside the field's own package sets, by a composite-literal
// key or by an assignment: a settable value nobody sets is a constant. The
// commands, examples and the benchmark count as callers; tests do not. A
// keyed literal counts for the field of the type it names, or, where the
// source does not name the literal's type (an element of a slice literal, an
// assignment through a selector), for every other package's field of that
// name — unless the setting package declares a knob field of that name
// itself, when it counts for none.
//
// A failure has three fixes: give the field a caller, make it an unexported
// constant at its default, or add it to knobAllowlist with the reason it
// stays.
func TestEveryKnobHasACaller(t *testing.T) {
	const module = "github.com/lightllm-go/lightllm"
	var files []knobFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, knobFile{dir: filepath.ToSlash(filepath.Dir(p)), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 20 {
		t.Fatalf("parsed %d program files; the walk missed the module", len(files))
	}

	// Every exported field of the knob structs, and every type alias (the
	// root package re-exports configurations under its own names).
	knobs := map[typeRef][]string{}
	aliases := map[typeRef]typeRef{}
	for _, kf := range files {
		for _, decl := range kf.f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if ts.Assign.IsValid() {
					if to, ok := namedType(ts.Type, kf.dir, importDirs(kf.f, module)); ok {
						aliases[typeRef{kf.dir, ts.Name.Name}] = to
					}
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ast.IsExported(name) ||
					!(strings.HasSuffix(name, "Config") || kf.dir == "internal/cluster" && name == "AutoScale") {
					continue
				}
				ref := typeRef{kf.dir, name}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() {
							knobs[ref] = append(knobs[ref], id.Name)
						}
					}
				}
			}
		}
	}
	// What the program files set: fields of the types they name, set from
	// outside the type's package, and the packages that set a field name
	// on a type the source does not name.
	setTyped := map[typeRef]map[string]bool{}
	setByName := map[string]map[string]bool{} // field name -> setting dirs
	byName := func(dir, field string) {
		if setByName[field] == nil {
			setByName[field] = map[string]bool{}
		}
		setByName[field][dir] = true
	}
	for _, kf := range files {
		imports := importDirs(kf.f, module)
		ast.Inspect(kf.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				ref, named := namedType(x.Type, kf.dir, imports)
				if to, ok := aliases[ref]; ok {
					ref = to
				}
				for _, elt := range x.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					switch {
					case !ok:
					case x.Type == nil: // an element of a slice or map literal
						byName(kf.dir, key.Name)
					case named && ref.dir != kf.dir:
						if setTyped[ref] == nil {
							setTyped[ref] = map[string]bool{}
						}
						setTyped[ref][key.Name] = true
					}
				}
			case *ast.AssignStmt:
				for _, e := range x.Lhs {
					if sel, ok := e.(*ast.SelectorExpr); ok {
						byName(kf.dir, sel.Sel.Name)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := x.X.(*ast.SelectorExpr); ok {
					byName(kf.dir, sel.Sel.Name)
				}
			}
			return true
		})
	}
	// A package that declares a knob field of its own by a name sets that
	// field, as far as this scan can tell, when it sets the name: engine.New
	// defaulting its own cfg.BlockSize sets no other package's BlockSize.
	declares := map[string]map[string]bool{} // dir -> its knob field names
	for ref, fields := range knobs {
		if declares[ref.dir] == nil {
			declares[ref.dir] = map[string]bool{}
		}
		for _, field := range fields {
			declares[ref.dir][field] = true
		}
	}
	setElsewhere := func(ref typeRef, field string) bool {
		if setTyped[ref][field] {
			return true
		}
		for dir := range setByName[field] {
			if dir != ref.dir && !declares[dir][field] {
				return true
			}
		}
		return false
	}

	count := 0
	var unset []string
	for ref, fields := range knobs {
		for _, field := range fields {
			count++
			key := ref.dir + "." + ref.name + "." + field
			_, allowed := knobAllowlist[key]
			switch caller := setElsewhere(ref, field); {
			case !caller && !allowed:
				unset = append(unset, key)
			case caller && allowed:
				t.Errorf("%s has a caller now: drop it from knobAllowlist", key)
			}
		}
	}
	for key := range knobAllowlist {
		i := strings.LastIndexByte(key, '.')
		j := strings.LastIndexByte(key[:i], '.')
		if !slices.Contains(knobs[typeRef{key[:j], key[j+1 : i]}], key[i+1:]) {
			t.Errorf("knobAllowlist names %s, which is not a settable value", key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s: no program outside its package sets it; give it a caller, make it a constant, or allowlist it with a reason", key)
	}
	if count < 50 {
		t.Fatalf("found %d settable values; the scan missed the configurations", count)
	}
	t.Logf("%d settable values in %d structs, %d allowlisted", count, len(knobs), len(knobAllowlist))
}

// importDirs maps a file's import names to the module directories they
// import; imports from outside the module are left out.
func importDirs(f *ast.File, module string) map[string]string {
	dirs := map[string]string{}
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || (p != module && !strings.HasPrefix(p, module+"/")) {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(p, module), "/")
		if dir == "" {
			dir = "."
		}
		dirs[name] = dir
	}
	return dirs
}

// namedType resolves a type expression that names a type of this module,
// through a pointer: T in the file's own package, or pkg.T.
func namedType(e ast.Expr, dir string, imports map[string]string) (typeRef, bool) {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch x := e.(type) {
	case *ast.Ident:
		return typeRef{dir, x.Name}, true
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok {
			if d, ok := imports[pkg.Name]; ok {
				return typeRef{d, x.Sel.Name}, true
			}
		}
	}
	return typeRef{}, false
}
