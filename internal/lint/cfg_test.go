package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody wraps src in a function, parses it, and returns the body's CFG.
func parseBody(t *testing.T, src string) *CFG {
	t.Helper()
	file := "package p\n\nfunc f() {\n" + src + "\n}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "cfg_test.go", file, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, file)
	}
	return NewCFG(f.Decls[0].(*ast.FuncDecl).Body)
}

func TestCFGRecordsDefers(t *testing.T) {
	cfg := parseBody(t, "defer println(\"a\")\nif true {\n\tdefer println(\"b\")\n}")
	if len(cfg.Defers) != 2 {
		t.Errorf("expected 2 recorded defers, got %d", len(cfg.Defers))
	}
}

func TestCFGExitReachable(t *testing.T) {
	// Every block reachable from entry must reach exit through Succs; in
	// particular the builder must terminate on nested loops with branches
	// and wire every break, continue and goto to a block.
	cfg := parseBody(t, `
for i := 0; i < 10; i++ {
	switch {
	case i == 1:
		continue
	case i == 2:
		break
	}
	for j := 0; j < i; j++ {
		if j == 3 {
			goto done
		}
	}
}
done:
println("end")`)
	reach := func(from *Block) map[*Block]bool {
		seen := map[*Block]bool{from: true}
		for queue := []*Block{from}; len(queue) > 0; queue = queue[1:] {
			for _, s := range queue[0].Succs {
				if !seen[s] {
					seen[s] = true
					queue = append(queue, s)
				}
			}
		}
		return seen
	}
	live := reach(cfg.Entry)
	if len(live) != len(cfg.Blocks) {
		t.Errorf("%d of %d blocks reachable from entry; the body has no dead code", len(live), len(cfg.Blocks))
	}
	for b := range live {
		if !reach(b)[cfg.Exit] {
			t.Errorf("exit not reachable from block with nodes %v", b.Nodes)
		}
	}
}
