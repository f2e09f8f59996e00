#!/bin/sh
# Malformed IR and assignment text must be refused, not misread or crashed
# on: every case below exits 1 with a diagnostic on stderr. An abort (134),
# any other status, an empty stderr or a missing expected message fails.
#
#   sh tests/hostile_inputs.sh path/to/luis
#
# Writes its files (hostile_*) into the current directory.
set -u
L=$1
failed=0

# A well-formed kernel: b is read, scaled and stored into a, 4 iterations.
cat > hostile_base.ir <<'EOF'
func @k {
  array @a[4] range [0, 1]
  array @b[4] range [0, 1]
entry:
  br h
h:
  %0 = phi int [ 0, entry ], [ %4, body ]
  %1 = icmp lt %0, 4
  condbr %1, body, exit
body:
  %2 = load @b[%0]
  %3 = mul 2.5, %2
  store %3, @a[%0]
  %4 = iadd %0, 1
  br h
exit:
  ret
}
EOF

# The controls: the base kernel verifies, runs and round-trips a saved
# assignment, so every failure below comes from its one mutation.
"$L" verify hostile_base.ir > /dev/null &&
  "$L" run hostile_base.ir > /dev/null &&
  "$L" tune hostile_base.ir --save-assignment hostile_base.types > /dev/null &&
  "$L" apply hostile_base.ir hostile_base.types > /dev/null ||
  { echo "the base kernel does not run cleanly"; exit 1; }

# mutate NAME SED-SCRIPT: hostile_NAME.ir is the base with one edit.
mutate() {
  sed "$2" hostile_base.ir > "hostile_$1.ir"
  cmp -s hostile_base.ir "hostile_$1.ir" && { echo "mutation $1 changed nothing"; failed=1; }
}

# expect_refusal MESSAGE VERB ARGS...: exit 1 and MESSAGE on stderr.
expect_refusal() {
  want=$1
  shift
  "$L" "$@" > hostile.out 2> hostile.err
  status=$?
  if [ "$status" -ne 1 ] || ! grep -q -- "$want" hostile.err; then
    echo "luis $* exited $status (want 1 and '$want'); stderr:"
    cat hostile.err
    failed=1
  fi
}

mutate negative_dim 's/array @a\[4\]/array @a[-3]/'
expect_refusal 'has dimension -3' verify hostile_negative_dim.ir
expect_refusal 'has dimension -3' run hostile_negative_dim.ir

mutate junk_dim 's/array @a\[4\]/array @a[4][abc]/'
expect_refusal 'bad array declaration' verify hostile_junk_dim.ir
expect_refusal 'bad array declaration' run hostile_junk_dim.ir

mutate huge_dim 's/array @a\[4\]/array @a[99999999999]/'
expect_refusal 'elements' run hostile_huge_dim.ir

mutate overflow_dims 's/array @a\[4\]/array @a[4294967296][4294967296]/'
expect_refusal 'elements' run hostile_overflow_dims.ir

mutate empty_range 's/array @a\[4\] range \[0, 1\]/array @a[4] range [1, 0]/'
expect_refusal 'needs lo <= hi' verify hostile_empty_range.ir
expect_refusal 'needs lo <= hi' tune hostile_empty_range.ir
expect_refusal 'needs lo <= hi' check hostile_empty_range.ir

mutate nan_range 's/array @b\[4\] range \[0, 1\]/array @b[4] range [nan, 1]/'
expect_refusal 'needs lo <= hi' tune hostile_nan_range.ir

mutate junk_range 's/range \[0, 1\]/range [0, 1x]/'
expect_refusal 'bad array declaration' verify hostile_junk_range.ir

mutate junk_index 's/load @b\[%0\]/load @b[%0junk]/'
expect_refusal "bad operand '%0junk'" verify hostile_junk_index.ir

mutate junk_literal 's/icmp lt %0, 4/icmp lt %0, 24abc/'
expect_refusal "bad operand '24abc'" verify hostile_junk_literal.ir

mutate junk_real 's/mul 2.5, %2/mul 2.5x, %2/'
expect_refusal "bad operand '2.5x'" run hostile_junk_real.ir

mutate junk_result_id 's/%3 = mul/%3x = mul/'
expect_refusal 'bad result id' verify hostile_junk_result_id.ir

# An index past the end verifies, then traps at run time on either engine.
mutate out_of_bounds 's/load @b\[%0\]/load @b[7]/'
"$L" verify hostile_out_of_bounds.ir > /dev/null ||
  { echo "hostile_out_of_bounds.ir should verify"; failed=1; }
expect_refusal 'array index out of bounds on b' run hostile_out_of_bounds.ir --engine vm
expect_refusal 'array index out of bounds on b' run hostile_out_of_bounds.ir --engine ref

# Assignment text: register ids and fractional bits are read whole.
sed 's/^%2 /%2xyz /' hostile_base.types > hostile_junk_register.types
cmp -s hostile_base.types hostile_junk_register.types &&
  { echo "the saved assignment has no %2 line"; failed=1; }
expect_refusal "non-Real register %2xyz" apply hostile_base.ir hostile_junk_register.types

printf '%%3 fix32.7x\n' > hostile_junk_frac.types
expect_refusal "bad type 'fix32.7x'" apply hostile_base.ir hostile_junk_frac.types

exit $failed
