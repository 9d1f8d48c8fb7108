package htdp

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowlistPath holds the declarations under internal/ that no binary
// links, one per line with the reason it stays: "facade" (reachable
// from the public htdp package, which is API), "reference" (a test
// uses it as the reference for linked code) or "harness" (dpcheck, a
// test harness by design).
const allowlistPath = "testdata/unlinked.txt"

// binaries are the module's programs: cmd/htdp, every example, and the
// repository benchmark (its own module, built with the settings
// perfbench/run.sh uses).
var binaries = []struct{ dir, pkg string }{
	{".", "./cmd/htdp"},
	{".", "./examples/convergence"},
	{".", "./examples/lasso"},
	{".", "./examples/logistic"},
	{".", "./examples/meanest"},
	{".", "./examples/quickstart"},
	{".", "./examples/sparsereg"},
	{".", "./examples/streaming"},
	{"perfbench", "."},
}

// TestReachability is the dead-code guard: every func and method
// declared in a non-test file under internal/ must be linked into one
// of the binaries, or be listed in the allowlist with its reason. An
// allowlist entry that is linked, or no longer declared, fails too, so
// the list never goes stale. The binaries are built with inlining off
// (-gcflags=all=-l): an inlined function leaves no symbol of its own.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the nine binaries; CI runs it in its own step")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out := t.TempDir()
	linked := map[string]bool{}
	for i, b := range binaries {
		exe := filepath.Join(out, strconv.Itoa(i))
		build := exec.Command(goBin, "build", "-gcflags=all=-l", "-o", exe, b.pkg)
		build.Dir = b.dir
		build.Env = append(os.Environ(), "GOFLAGS=-mod=readonly", "GOPROXY=off")
		if msg, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s/%s: %v\n%s", b.dir, b.pkg, err, msg)
		}
		nm, err := exec.Command(goBin, "tool", "nm", exe).Output()
		if err != nil {
			t.Fatalf("nm %s: %v", exe, err)
		}
		for _, line := range strings.Split(string(nm), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			if name, ok := strings.CutPrefix(foldSymbol(strings.Join(f[2:], " ")), "htdp/internal/"); ok {
				linked[name] = true
			}
		}
	}

	declared := declaredFuncs(t, "internal")
	allow := readAllowlist(t)
	var unlisted []string
	for name, pos := range declared {
		if !linked[name] && allow[name] == "" {
			unlisted = append(unlisted, pos+": "+name)
		}
	}
	sort.Strings(unlisted)
	for _, u := range unlisted {
		t.Errorf("%s is linked into no binary: delete it, or list it in %s with its reason", u, allowlistPath)
	}
	for name := range allow {
		switch {
		case declared[name] == "":
			t.Errorf("%s: %s is no longer declared; drop the entry", allowlistPath, name)
		case linked[name]:
			t.Errorf("%s: %s is linked now; drop the entry", allowlistPath, name)
		}
	}
	t.Logf("%d declarations, %d allowlisted as unlinked", len(declared), len(allow))
}

// foldSymbol maps a linker symbol to the declaration it came from:
// type arguments (nested brackets included) are dropped, a pointer
// receiver "(*T).M" reads "T.M", and closures (".funcN", ".gowrapN",
// ".deferwrapN", ".N"), method values ("-fm") and the numbered user
// init functions ("init.N") fold into their enclosing function.
func foldSymbol(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	s = strings.TrimSuffix(b.String(), "-fm")
	for {
		i := strings.LastIndexByte(s, '.')
		if i < 0 || !closureSuffix(s[i+1:]) {
			return s
		}
		s = s[:i]
	}
}

func closureSuffix(part string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap", ""} {
		if digits, ok := strings.CutPrefix(part, p); ok && digits != "" && strings.Trim(digits, "0123456789") == "" {
			return true
		}
	}
	return false
}

// declaredFuncs returns every func and method declared in a non-test
// file under root, keyed "pkg.Func" or "pkg.Type.Method" (the import
// path below internal/), with its position.
func declaredFuncs(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(strings.TrimPrefix(filepath.Dir(path), root+string(filepath.Separator)))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" {
				continue
			}
			name := pkg + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				name = pkg + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			out[name] = fset.Position(fd.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func recvTypeName(e ast.Expr) string {
	for {
		switch tt := e.(type) {
		case *ast.StarExpr:
			e = tt.X
		case *ast.IndexExpr:
			e = tt.X
		case *ast.IndexListExpr:
			e = tt.X
		case *ast.ParenExpr:
			e = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return "?"
		}
	}
}

// readAllowlist parses allowlistPath: "reason name" per line, '#'
// comments and blank lines ignored.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(allowlistPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s:%d: want \"reason name\", got %q", allowlistPath, n, line)
		}
		switch fields[0] {
		case "facade", "reference", "harness":
		default:
			t.Fatalf("%s:%d: reason %q is not facade, reference or harness", allowlistPath, n, fields[0])
		}
		if _, dup := out[fields[1]]; dup {
			t.Fatalf("%s:%d: %s listed twice", allowlistPath, n, fields[1])
		}
		out[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
