package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// envLine stamps a run with what its numbers depend on.
func envLine(o options, w *workload) string {
	walFS := "none"
	if w.name == "write-mix" {
		walFS = fsType(o.dir)
	}
	return fmt.Sprintf("env: workload=%s seed=%d seconds=%g trace=%v commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q "+
		"scales=q7:%g,probe:%d,scan:%g,write-mix:%d clients=%d netsim_rtt=0 netsim_bandwidth=unlimited wal_fs=%s wal_flush=fsync-per-group-commit",
		w.name, o.seed, o.seconds, o.trace, o.commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		cpuModel(), q7Scale, personsScale, scanScale, personsScale, w.clients, walFS)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir (or its nearest existing
// parent) by its statfs magic number.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	for {
		var st syscall.Statfs_t
		if err := syscall.Statfs(abs, &st); err == nil {
			switch st.Type {
			case 0x01021994:
				return "tmpfs"
			case 0xEF53:
				return "ext4"
			case 0x9123683E:
				return "btrfs"
			case 0x58465342:
				return "xfs"
			case 0x794c7630:
				return "overlayfs"
			default:
				return fmt.Sprintf("0x%x", st.Type)
			}
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "unknown"
		}
		abs = parent
	}
}
