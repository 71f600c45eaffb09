package lsm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// accessorFields parses registry.go and returns, per row of optionSpecs that
// carries accessor closures, the Options fields those closures select.
func accessorFields(t *testing.T, fset *token.FileSet, optionsFields map[string]bool) map[string][]string {
	t.Helper()
	file, err := parser.ParseFile(fset, "registry.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var table *ast.CompositeLit
	ast.Inspect(file, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok && len(vs.Names) == 1 && vs.Names[0].Name == "optionSpecs" {
			table = vs.Values[0].(*ast.CompositeLit)
		}
		return table == nil
	})
	if table == nil {
		t.Fatal("registry.go: var optionSpecs not found")
	}
	rows := map[string][]string{}
	for _, row := range table.Elts {
		var name string
		var fields []string
		ast.Inspect(row, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if name == "" && n.Kind == token.STRING {
					name, _ = strconv.Unquote(n.Value)
				}
			case *ast.FuncLit:
				param := n.Type.Params.List[0].Names[0].Name
				ast.Inspect(n.Body, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == param && optionsFields[sel.Sel.Name] {
							fields = append(fields, sel.Sel.Name)
						}
					}
					return true
				})
				return false
			}
			return true
		})
		if len(fields) > 0 {
			rows[name] = fields
		}
	}
	return rows
}

// TestHonoredFieldsAreRead holds the "honored" label to its meaning: every
// row with accessors must bind an Options field that engine code — any
// non-test file of this package other than the three that only declare, set
// or scale options — actually selects, directly or through one of options.go's
// resolver methods. A knob that parses into a field nobody reads is
// recorded-only, whatever it is called.
func TestHonoredFieldsAreRead(t *testing.T) {
	fset := token.NewFileSet()
	optionsFile, err := parser.ParseFile(fset, "options.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	optionsFields := map[string]bool{}
	// resolvers maps each Options method of options.go (backgroundFlushSlots,
	// delayedWriteRate, ...) to what it selects on its receiver: a field read
	// there is read by the engine when the engine calls the method. Validate
	// is left out — it checks fields, it does not act on them.
	resolvers := map[string][]string{}
	ast.Inspect(optionsFile, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if n.Name.Name == "Options" {
				for _, f := range n.Type.(*ast.StructType).Fields.List {
					for _, id := range f.Names {
						optionsFields[id.Name] = true
					}
				}
			}
		case *ast.FuncDecl:
			if n.Recv == nil || n.Name.Name == "Validate" || len(n.Recv.List[0].Names) == 0 {
				return false
			}
			recv := n.Recv.List[0].Names[0].Name
			ast.Inspect(n.Body, func(b ast.Node) bool {
				if sel, ok := b.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == recv {
						resolvers[n.Name.Name] = append(resolvers[n.Name.Name], sel.Sel.Name)
					}
				}
				return true
			})
			return false
		}
		return true
	})

	rows := accessorFields(t, fset, optionsFields)
	var bound []string
	for name := range rows {
		bound = append(bound, name)
	}
	sort.Strings(bound)
	if honored := HonoredOptionNames(); !reflect.DeepEqual(bound, honored) {
		t.Fatalf("rows with accessors in registry.go = %v\nHonoredOptionNames() = %v", bound, honored)
	}

	selected := map[string]bool{}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		n := e.Name()
		if !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			n == "registry.go" || n == "options.go" || n == "scale.go" {
			continue
		}
		f, err := parser.ParseFile(fset, n, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				selected[sel.Sel.Name] = true
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for method, sels := range resolvers {
			for _, sel := range sels {
				if selected[method] && !selected[sel] {
					selected[sel], changed = true, true
				}
			}
		}
	}
	for _, name := range bound {
		for _, field := range rows[name] {
			if !selected[field] {
				t.Errorf("%s is labelled honored, but no engine code reads Options.%s", name, field)
			}
		}
	}
}
