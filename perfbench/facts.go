package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// facts describe the host and build a run measured on, so a noisy run can
// explain itself.
type facts struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Toolchain  string  `json:"toolchain"`
	GitRev     string  `json:"git_rev"`
	StoreFS    string  `json:"store_fs"`
	StealS     float64 `json:"cpu_steal_s"`
	StealPct   float64 `json:"cpu_steal_pct"`
	Rounds     int     `json:"rounds"`
	WallS      float64 `json:"wall_s"`
}

func hostFacts(storeDir string) facts {
	f := facts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Toolchain:  runtime.Version(),
		GitRev:     "unknown",
		StoreFS:    fsType(storeDir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				f.GitRev = s.Value
			}
		}
	}
	return f
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// stealTicks reads the aggregate CPU steal counter (USER_HZ ticks) from
// /proc/stat; ok is false where the file or field is missing.
func stealTicks() (uint64, bool) {
	fh, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			v, err := strconv.ParseUint(fields[8], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}
