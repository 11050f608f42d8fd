package analysis

import (
	"go/types"
	"strings"
)

// Unused reports a package-level func, method, type, var or const that no
// non-test file of the module uses. Everything under internal/ is closed
// to the module, so the question has an exact answer: Check builds the
// module's used set once (UsedObjects) and each pass reads it. Counted as
// used without a call site: methods that satisfy an interface the module
// uses, the methods fmt, errors and encoding/json reach by name (String,
// Error, Format, Unwrap, Marshal*, Unmarshal*), main and init, and the
// exported API of the module's root package (Check's public set).
var Unused = &Analyzer{
	Name: "unused",
	Doc:  "flag package-level declarations no non-test file of the module uses",
	Run:  runUnused,
}

func runUnused(pass *Pass) {
	for id, obj := range pass.Info.Defs {
		var kind string
		switch obj := obj.(type) {
		case *types.Func:
			kind = "func"
			if recv := obj.Signature().Recv(); recv != nil {
				if types.IsInterface(recv.Type()) || reachedByName(id.Name) {
					continue
				}
				kind = "method"
			} else if id.Name == "main" || id.Name == "init" {
				continue
			}
		case *types.TypeName:
			kind = "type"
		case *types.Var:
			kind = "var"
		case *types.Const:
			kind = "const"
		}
		// Methods aside, only the package scope's names are declarations
		// the rule covers: not fields, parameters or locals.
		if kind == "" || id.Name == "_" || pass.Used[obj] || kind != "method" && obj.Parent() != pass.Pkg.Scope() {
			continue
		}
		pass.Reportf(id.Pos(), "%s %s is used by no non-test file", kind, id.Name)
	}
}

// reachedByName reports whether the standard library calls a method of
// this name through reflection or an interface the module never names.
func reachedByName(name string) bool {
	switch name {
	case "String", "Error", "Format", "Unwrap":
		return true
	}
	return strings.HasPrefix(name, "Marshal") || strings.HasPrefix(name, "Unmarshal")
}

// UsedObjects returns every object that infos refer to, generic ones
// resolved to their origin, and every method through which a type the
// infos declare satisfies an interface they use: a call through the
// interface reaches it with no use naming it. Objects declared in public,
// when non-nil, count as used if exported, along with the exported
// methods of the types it exports: that package is the module's API.
func UsedObjects(infos []*types.Info, public *types.Package) map[types.Object]bool {
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	var addIfaces func(t types.Type)
	addIfaces = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named, *types.Alias, *types.Interface:
			if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		case *types.Pointer:
			addIfaces(t.Elem())
		case *types.Slice:
			addIfaces(t.Elem())
		case *types.Signature:
			for _, tup := range [2]*types.Tuple{t.Params(), t.Results()} {
				for v := range tup.Variables() {
					addIfaces(v.Type())
				}
			}
		case *types.TypeParam:
			addIfaces(t.Constraint())
		}
	}
	var declared []*types.TypeName
	for _, info := range infos {
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
			addIfaces(obj.Type())
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && tn.Parent() == tn.Pkg().Scope() {
				declared = append(declared, tn)
			}
		}
	}
	for _, tn := range declared {
		if types.IsInterface(tn.Type()) || tn.Type().(*types.Named).TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for m := range it.Methods() {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				used[obj.(*types.Func).Origin()] = true
			}
		}
	}
	if public != nil {
		for _, name := range public.Scope().Names() {
			obj := public.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			used[obj] = true
			if _, ok := obj.(*types.TypeName); !ok {
				continue
			}
			for sel := range types.NewMethodSet(types.NewPointer(obj.Type())).Methods() {
				if sel.Obj().Exported() {
					used[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	return used
}
