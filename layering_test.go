package repro_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// layering is the import DAG of internal/: for every package, the internal
// packages its non-test files may import. It lists every edge there is, so
// an edge that goes away must leave the table too.
var layering = map[string][]string{
	"value":      {},
	"obs":        {},
	"loadgen":    {},
	"iter":       {"value"},
	"trace":      {"value"},
	"workflow":   {"iter", "value"},
	"engine":     {"iter", "trace", "value", "workflow"},
	"gen":        {"engine", "value", "workflow"},
	"reldb":      {"obs"},
	"faultfs":    {"reldb"},
	"sqlike":     {"reldb"},
	"colstore":   {"reldb"},
	"store":      {"colstore", "obs", "reldb", "sqlike", "trace", "value", "workflow"},
	"resilience": {"store"},
	"shard":      {"obs", "resilience", "store", "trace", "value", "workflow"},
	"lineage":    {"iter", "obs", "store", "trace", "value", "workflow"},
	"queryfmt":   {"lineage", "value"},
	"core":       {"engine", "lineage", "shard", "store", "trace", "value", "workflow"},
	"server":     {"core", "lineage", "obs", "queryfmt", "resilience", "store", "trace", "value", "workflow"},
	"bench":      {"core", "engine", "gen", "lineage", "loadgen", "obs", "resilience", "server", "shard", "store", "trace", "value", "workflow"},
}

// layeringExceptions are the edges the layering does not want but still
// has, each with what removes it.
var layeringExceptions = map[[2]string]string{
	{"server", "gen"}: "the service registry should come in through server.Config",
}

// TestLayering parses the imports of every non-test file under internal/
// and names each edge the layering table does not list, each listed edge no
// file has, and each package the table does not know.
func TestLayering(t *testing.T) {
	const prefix = "repro/internal/"
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	have := map[[2]string]bool{}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkg := d.Name()
		if _, ok := layering[pkg]; !ok {
			t.Errorf("package internal/%s is not in the layering table", pkg)
		}
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			ast, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range ast.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if dep, ok := strings.CutPrefix(path, prefix); ok {
					have[[2]string{pkg, dep}] = true
				}
			}
		}
	}
	want := map[[2]string]bool{}
	for pkg, deps := range layering {
		for _, dep := range deps {
			want[[2]string{pkg, dep}] = true
		}
	}
	for edge := range layeringExceptions {
		want[edge] = true
	}
	var offending, stale []string
	for edge := range have {
		if !want[edge] {
			offending = append(offending, edge[0]+" → "+edge[1])
		}
	}
	for edge := range want {
		if !have[edge] {
			stale = append(stale, edge[0]+" → "+edge[1])
		}
	}
	sort.Strings(offending)
	sort.Strings(stale)
	for _, e := range offending {
		t.Errorf("import edge %s is not in the layering table", e)
	}
	for _, e := range stale {
		t.Errorf("layering table lists %s, which no file imports", e)
	}
}
