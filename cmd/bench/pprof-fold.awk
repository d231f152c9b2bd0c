# go tool pprof -traces -> folded stacks: root first, frames joined by ';',
# then the stack's sample time in ms. To keep the file small and readable
# by layer: frames outside this module are dropped except the leaf (where
# the time was spent, always a full function name); frames of the fabric
# path's packages (pipeline, config, network, protograph, tiered, modular)
# and of the solver (sat, not sat/drat) keep their function; frames of the
# other module packages fold to the package; equal neighbours fold to one
# frame; equal stacks are merged.
/^-+\+-+$/ { flush(); next }
/^ +[0-9.]+m?s +/ { v = $1; ms = (v ~ /ms$/) ? v + 0 : (v + 0) * 1000; n = 0; sub(/^ +[0-9.]+m?s +/, ""); frames[++n] = $0; next }
/^ +/ { if (n > 0) { sub(/^ +/, ""); frames[++n] = $0 }; next }
function flush(   i, s, f, last) {
	if (n == 0) return
	s = ""; last = ""
	for (i = n; i >= 1; i--) {
		f = frames[i]; sub(/ \(inline\)$/, "", f); gsub(/ /, "_", f)
		if (f ~ /^repro[\/_]/) {
			sub(/^repro\/internal\//, "", f)
			if (i > 1 && f !~ /^(pipeline|config|network|protograph|tiered|modular|sat)\./) sub(/\..*$/, "", f)
		} else if (i > 1) continue
		if (f != last) { s = (s == "" ? f : s ";" f); last = f }
	}
	sum[s] += ms; n = 0
}
END { flush(); for (s in sum) printf "%s %d\n", s, sum[s] }
