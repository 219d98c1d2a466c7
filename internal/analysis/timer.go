package analysis

import (
	"go/ast"
	"strings"
)

// TimerDiscipline enforces the shared-timer-wheel contract of the pacing
// packages (PR 9): a paced stream must wait on internal/timewheel (or an
// injected sleeper), never on runtime timers — per-wait time.NewTimer is
// exactly the one-runtime-timer-per-frame-per-stream cost the wheel was
// built to eliminate, and a stray time.Sleep cannot be canceled by Stop.
//
// A package opts in by declaring //xmovie:pacing-package in its package
// doc; the packages that pace media (mtp, spa, and the wheel itself) are
// additionally required to carry the declaration, so deleting the
// annotation cannot silently drop the package out of the check. Inside a
// pacing package every use (not just call — assigning time.Sleep to a
// function variable smuggles the timer just as well) of the banned
// time-package functions is an error unless the line carries
// //xmovie:allow-timer with a reason.
//
// Raw kernel sleeps and timers are flagged the same way: a pacing package
// that reaches for syscall.Nanosleep, SYS_NANOSLEEP, SYS_CLOCK_NANOSLEEP
// or a SYS_TIMERFD_* call has built a second, private timer beside the
// wheel. The wheel's own precise tick driver carries //xmovie:allow-timer,
// so it stays the one sanctioned kernel timer.
var TimerDiscipline = &Analyzer{
	Name: "timerdiscipline",
	Doc:  "pacing packages must pace on internal/timewheel, not runtime timers",
	Run:  runTimerDiscipline,
}

// requiredPacingPackages must declare //xmovie:pacing-package; the check
// itself then applies to any package carrying the declaration.
var requiredPacingPackages = map[string]bool{
	"xmovie/internal/mtp":       true,
	"xmovie/internal/spa":       true,
	"xmovie/internal/timewheel": true,
}

// bannedTimeFuncs are the runtime-timer entry points of package time. Pure
// clock reads (Now, Since, Until) stay legal: the pacing loops are built on
// measured waits.
var bannedTimeFuncs = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// bannedSyscall reports whether name, declared in the syscall package, is
// a raw sleep or timer entry point.
func bannedSyscall(name string) bool {
	switch name {
	case "Nanosleep", "SYS_NANOSLEEP", "SYS_CLOCK_NANOSLEEP":
		return true
	}
	return strings.HasPrefix(name, "SYS_TIMERFD_")
}

func runTimerDiscipline(pass *Pass) error {
	declared := PackageHas(pass.Files, "pacing-package")
	if requiredPacingPackages[pass.Pkg.Path()] && !declared {
		pass.Report(pass.Files[0].Package,
			"package %s paces media streams and must declare //xmovie:pacing-package in its package doc",
			pass.Pkg.Name())
	}
	if !declared {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			var msg string
			switch path := obj.Pkg().Path(); {
			case path == "time" && bannedTimeFuncs[obj.Name()]:
				msg = "time.%s in a pacing package: pace on internal/timewheel (or an injected sleeper), or annotate //xmovie:allow-timer <reason>"
			case path == "syscall" && bannedSyscall(obj.Name()):
				msg = "syscall.%s in a pacing package: a raw kernel sleep or timer beside the wheel; pace on internal/timewheel, or annotate //xmovie:allow-timer <reason>"
			default:
				return true
			}
			if _, allowed := pass.Dirs.At(sel.Pos(), "allow-timer"); allowed {
				return true
			}
			pass.Report(sel.Pos(), msg, obj.Name())
			return true
		})
	}
	return nil
}
