// Package cli is what the t2hx and figures commands share: one subcommand
// per experiment, each with its own flag set, the exit-code mapping, and
// the profiling and machine flags. A flag a subcommand does not register
// is an error, not a silent no-op.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/hpcsim/t2hx/internal/exp"
	"github.com/hpcsim/t2hx/internal/prof"
)

// Command is one subcommand: Run gets the arguments after its name.
type Command struct {
	Name, Summary string
	Run           func(args []string) error
}

// errUsage is a command-line mistake that has already been reported
// together with the flag list; Dispatch exits 2 for it, as the flag
// package does.
var errUsage = errors.New("usage")

// Dispatch runs the command of prog that args[0] names and maps its error
// to the exit status: 0 on success or -h, 2 for a command-line mistake
// (an unknown subcommand or flag included), 1 for a failed run.
func Dispatch(prog string, cmds []Command, args []string) int {
	if len(args) > 0 {
		for _, c := range cmds {
			if c.Name != args[0] {
				continue
			}
			err := c.Run(args[1:])
			switch {
			case err == nil || errors.Is(err, flag.ErrHelp):
				return 0
			case errors.Is(err, errUsage):
				return 2
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "%s: unknown subcommand %q\n", prog, args[0])
	}
	fmt.Fprintf(os.Stderr, "usage: %s <subcommand> [flags]; %[1]s <subcommand> -h lists its flags\n", prog)
	for _, c := range cmds {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.Name, c.Summary)
	}
	return 2
}

// NewFlagSet returns a subcommand's flag set; parse errors come back to
// the subcommand instead of exiting.
func NewFlagSet(prog, name string) *flag.FlagSet {
	return flag.NewFlagSet(prog+" "+name, flag.ContinueOnError)
}

// Parse reads a subcommand's arguments, which are flags only.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package printed it with the flag list
	}
	if fs.NArg() > 0 {
		return Usagef(fs, "unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// Usagef reports a command-line mistake the way the flag package reports
// an undefined flag: the message, then the subcommand's flag list.
func Usagef(fs *flag.FlagSet, format string, args ...any) error {
	fmt.Fprintf(fs.Output(), format+"\n", args...)
	fs.Usage()
	return errUsage
}

// AddProfFlags registers the profiling flags and returns a wrapper that
// runs a subcommand's body under the profilers they select. The profilers
// stop however the body returns, so an error exit still flushes the CPU
// profile.
func AddProfFlags(fs *flag.FlagSet) func(body func() error) error {
	var o prof.Options
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	fs.StringVar(&o.HTTPAddr, "pprof-http", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live inspection")
	return func(body func() error) error {
		s, err := prof.Start(o)
		if err != nil {
			return err
		}
		if o.HTTPAddr != "" {
			fmt.Fprintf(os.Stderr, "pprof serving on http://%s/debug/pprof/\n", s.Addr())
		}
		err = body()
		return errors.Join(err, s.Stop())
	}
}

// MachineFlags pick the planes' scale, seed and missing cables.
type MachineFlags struct {
	Small, NoDegrade bool
	Seed             uint64
}

// AddMachineFlags registers -small and -seed, and -no-degrade when
// degrade is set: the degraded sweeps plan their own failures, so there
// it would mean nothing.
func AddMachineFlags(fs *flag.FlagSet, degrade bool) *MachineFlags {
	m := &MachineFlags{}
	fs.BoolVar(&m.Small, "small", false, "use the 32-node test planes")
	fs.Uint64Var(&m.Seed, "seed", 1, "master seed")
	if degrade {
		fs.BoolVar(&m.NoDegrade, "no-degrade", false, "ideal fabric without missing cables")
	}
	return m
}

// Config is the machine the flags describe.
func (m *MachineFlags) Config() exp.MachineConfig {
	return exp.MachineConfig{Degrade: !m.NoDegrade, Seed: m.Seed, Small: m.Small}
}
