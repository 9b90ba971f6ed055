#!/usr/bin/env bash
# Every count lives once, in the lane-confined component that owns it;
# obs::registry() only receives totals when an owner tears down. This
# check keeps it that way: outside src/obs, registry() may appear only
# in the destructors that publish those totals (the merge sites
# below). A per-op or per-failure registry lookup anywhere else fails
# the check.
#
# Usage: registry_sites.sh <src-directory>
set -uo pipefail

src="$1"
# file:function of every allowed merge site.
allowed=(
    "dma/dma_context.cc:DmaContext::~DmaContext"
    "dma/dma_handle.cc:DmaHandle::~DmaHandle"
    "dma/baseline_handle.cc:BaselineDmaHandle::~BaselineDmaHandle"
)

failed=0
found=0
while IFS=: read -r file line text; do
    rel="${file#"$src"/}"
    [[ "$rel" == obs/* ]] && continue
    # Comments may name it.
    [[ "$text" =~ ^[[:space:]]*(//|/\*|\*) ]] && continue
    # The enclosing function: the nearest definition line above
    # ("Class::name(" at column 0).
    fn="$(head -n "$line" "$file" |
          grep -E '^[A-Za-z_][A-Za-z0-9_:~]*\(' | tail -n 1)"
    fn="${fn%%(*}"
    site="$rel:$fn"
    ok=0
    for a in "${allowed[@]}"; do
        [[ "$site" == "$a" ]] && ok=1
    done
    if [[ $ok -eq 1 ]]; then
        found=$((found + 1))
    else
        echo "registry_sites: $rel:$line calls obs::registry() in" \
             "'${fn:-?}'; only teardown merge sites may" >&2
        failed=1
    fi
done < <(grep -rn --include='*.h' --include='*.cc' 'registry()' "$src")

if [[ $found -ne ${#allowed[@]} ]]; then
    echo "registry_sites: expected ${#allowed[@]} merge sites, found" \
         "$found" >&2
    failed=1
fi
exit "$failed"
