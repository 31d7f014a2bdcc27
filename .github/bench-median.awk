# Prints the median of one metric over every sample of one benchmark in
# `go test -bench -count=N` output, so a same-run gate compares medians
# rather than one noisy sample:
#
#   awk -v bench=BenchmarkIngestBatch -v unit=snaps/s -f .github/bench-median.awk bench.out
#
# bench is the exact benchmark name (its -GOMAXPROCS suffix is ignored);
# unit is the label after the value: ns/op, allocs/op, snaps/s, ...
# Exits 1 when the output holds no such sample.
{
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (name != bench)
		next
	for (i = 3; i <= NF; i++)
		if ($i == unit)
			v[n++] = $(i - 1) + 0
}
END {
	if (n == 0) {
		print "no " unit " sample of " bench > "/dev/stderr"
		exit 1
	}
	for (i = 1; i < n; i++) {
		x = v[i]
		for (j = i - 1; j >= 0 && v[j] > x; j--)
			v[j + 1] = v[j]
		v[j + 1] = x
	}
	printf "%.4f\n", (n % 2) ? v[(n - 1) / 2] : (v[n / 2 - 1] + v[n / 2]) / 2
}
