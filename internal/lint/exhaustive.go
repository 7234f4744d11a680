package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive checks that a switch over one of the module's enum-like
// named types — rewrite.PartialReason, tpq.Axis, fault.Action,
// constraints.Kind, obs.Stage, ... — either covers every declared
// value of the type or carries an explicit default clause. A type is
// enum-like when it is a named type declared in this module with an
// integer or string underlying type and at least two package-level
// constants of exactly that type in its declaring package. Bound
// sentinels (constants named Num*, e.g. obs.NumStages) are not values
// and are exempt.
//
// The point is growth safety: when the view-intersection work adds an
// Axis or a PartialReason, every switch that silently ignores the
// new value is a latent bug; this turns each into a diagnostic. A
// switch that intentionally handles a subset says so with `default:`.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc: "switches over module enum types cover all values or have an explicit default\n" +
		"A new enum value must not be silently ignored; subset handling is fine but\n" +
		"must be declared with a default clause.",
	Run: runExhaustive,
}

func runExhaustive(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw)
			return true
		})
	}
	return nil
}

func checkSwitch(pass *Pass, sw *ast.SwitchStmt) {
	t := pass.Info.TypeOf(sw.Tag)
	if t == nil {
		return
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !inModule(pass.ModulePath, obj.Pkg()) {
		return
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsInteger|types.IsString) == 0 {
		return
	}
	members := enumMembers(named)
	if len(members) < 2 {
		return
	}

	covered := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // explicit default: subset handling is declared
		}
		for _, e := range cc.List {
			tv, ok := pass.Info.Types[e]
			if !ok || tv.Value == nil {
				// Non-constant case expression: coverage is not
				// decidable statically; leave the switch alone.
				return
			}
			covered[tv.Value.ExactString()] = true
		}
	}

	var missing []string
	for _, m := range members {
		if !covered[m.Val().ExactString()] {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(sw.Pos(),
		"switch over %s.%s is missing cases %s and has no default; handle them or declare the subset with default (exhaustive)",
		obj.Pkg().Name(), obj.Name(), strings.Join(missing, ", "))
}

// enumMembers returns the package-level constants of exactly the named
// type, excluding Num* bound sentinels. Two constants sharing a value
// (aliases) both appear, but coverage is by value, so either satisfies
// the check.
func enumMembers(named *types.Named) []*types.Const {
	scope := named.Obj().Pkg().Scope()
	var members []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || strings.HasPrefix(name, "Num") {
			continue
		}
		if types.Identical(c.Type(), named) {
			members = append(members, c)
		}
	}
	return members
}
