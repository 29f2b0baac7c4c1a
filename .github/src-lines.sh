#!/bin/sh
# Python source lines of src/repro per package, as a markdown table.
#
#   sh .github/src-lines.sh src/repro             | package | lines |
#   sh .github/src-lines.sh src/repro BASE/src/repro
#                                                 | package | base | head | delta |
#
# "(top-level modules)" is src/repro/*.py; a package missing from one
# tree counts 0 there.
set -eu
head_root=$1
base_root=${2:-}

count() {  # count ROOT PACKAGE -- "." is the top-level modules, "" everything
  if [ "$2" = . ]; then
    cat "$1"/*.py | wc -l
  elif [ -d "$1/$2" ]; then
    find "$1/$2" -name '*.py' -exec cat {} + | wc -l
  else
    echo 0
  fi
}

row() {  # row LABEL PACKAGE
  head=$(count "$head_root" "$2")
  if [ -z "$base_root" ]; then
    printf '| %s | %d |\n' "$1" "$head"
  else
    base=$(count "$base_root" "$2")
    printf '| %s | %d | %d | %+d |\n' "$1" "$base" "$head" "$((head - base))"
  fi
}

if [ -z "$base_root" ]; then
  printf '| package | lines |\n|---|---:|\n'
else
  printf '| package | base | head | delta |\n|---|---:|---:|---:|\n'
fi
for package in $(find "$head_root" $base_root -mindepth 1 -maxdepth 1 -type d \
    ! -name __pycache__ -exec basename {} \; | sort -u); do
  row "$package" "$package"
done
row "(top-level modules)" .
row "**total**" ""
