package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"coolair/internal/weather"
)

// Fleet specs: the -fleet flag of coolair-serve describes N sites
// (climate × system × seed) in a compact grammar reusing the world
// sweep's site generation:
//
//	world:16               16 sites evenly subsampled from the world grid
//	world:16:all-nd        same, with an explicit system
//	newark:all-nd          one study-location site
//	newark:all-nd:4        four seeds of the same site
//	@fleet.txt             read groups from a file (one per line, # comments)
//
// Groups are comma-separated and concatenate in order. Site IDs are
// assigned deterministically from the climate name and the site's index
// in the spec, sanitized to [a-z0-9+-] so they are safe as URL path
// segments, metrics label values, and store shard directory names.

// FleetSite is one site of a multi-tenant fleet: an id (stable across
// warm reboots of the same spec), the climate it runs under, the system
// that manages it, and a per-site seed offsetting its fault plan.
type FleetSite struct {
	ID      string
	Climate weather.Climate
	System  System
	Seed    int64
}

// ParseFleetSpec parses the -fleet grammar above into its site list.
// The same spec always yields the same sites in the same order — the
// fleet's shard-determinism and warm-boot guarantees both hang on that.
func ParseFleetSpec(spec string) ([]FleetSite, error) {
	if strings.HasPrefix(spec, "@") {
		raw, err := os.ReadFile(strings.TrimPrefix(spec, "@"))
		if err != nil {
			return nil, fmt.Errorf("fleet spec file: %w", err)
		}
		var groups []string
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			groups = append(groups, line)
		}
		spec = strings.Join(groups, ",")
	}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("empty fleet spec")
	}

	var sites []FleetSite
	add := func(cl weather.Climate, sys System) {
		idx := len(sites)
		sites = append(sites, FleetSite{
			ID:      fmt.Sprintf("%s-%d", siteID(cl.Name), idx),
			Climate: cl,
			System:  sys,
			Seed:    int64(idx),
		})
	}
	for _, group := range strings.Split(spec, ",") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		parts := strings.Split(group, ":")
		if parts[0] == "world" {
			if len(parts) < 2 || len(parts) > 3 {
				return nil, fmt.Errorf("fleet group %q: want world:N[:system]", group)
			}
			n, err := strconv.Atoi(parts[1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fleet group %q: bad site count %q", group, parts[1])
			}
			sysName := "all-nd"
			if len(parts) == 3 {
				sysName = parts[2]
			}
			sys, ok := SystemByName(sysName)
			if !ok {
				return nil, fmt.Errorf("fleet group %q: unknown system %q", group, sysName)
			}
			for _, cl := range worldSubsample(n) {
				add(cl, sys)
			}
			continue
		}
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("fleet group %q: want location:system[:count]", group)
		}
		cl, ok := ClimateByName(parts[0])
		if !ok {
			return nil, fmt.Errorf("fleet group %q: unknown location %q", group, parts[0])
		}
		sys, ok := SystemByName(parts[1])
		if !ok {
			return nil, fmt.Errorf("fleet group %q: unknown system %q", group, parts[1])
		}
		count := 1
		if len(parts) == 3 {
			c, err := strconv.Atoi(parts[2])
			if err != nil || c < 1 {
				return nil, fmt.Errorf("fleet group %q: bad count %q", group, parts[2])
			}
			count = c
		}
		for i := 0; i < count; i++ {
			add(cl, sys)
		}
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("fleet spec %q yields no sites", spec)
	}
	return sites, nil
}

// siteID lowercases a climate name into the fleet id alphabet
// [a-z0-9+-] (anything else becomes '-'), matching the store layer's
// filename sanitizer so the id round-trips through shard paths.
func siteID(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '+', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}
