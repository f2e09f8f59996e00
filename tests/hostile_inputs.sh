#!/bin/sh
# Malformed IR, kernel-language, assignment and op-time text must be
# refused, not misread or crashed on: every case below exits 1 with a
# diagnostic on stderr. An abort (134), any other status, an empty stderr
# or a missing expected message fails.
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

# Assignment text: only the canonical spellings assignment_to_text writes
# are read, so a leading zero or a sign on an id or on fractional bits is
# refused rather than read as the number.
printf '%%02 binary64\n' > hostile_zero_register.types
printf '@a fix32.07\n' > hostile_zero_frac.types
printf '%%2 fix32.-0\n' > hostile_signed_frac.types
expect_refusal "line 1: unknown or non-Real register %02" apply hostile_base.ir hostile_zero_register.types
expect_refusal "line 1: unknown or non-Real register %02" check hostile_base.ir --assignment hostile_zero_register.types
expect_refusal "line 1: bad type 'fix32.07'" apply hostile_base.ir hostile_zero_frac.types
expect_refusal "line 1: bad type 'fix32.07'" check hostile_base.ir --assignment hostile_zero_frac.types
expect_refusal "line 1: bad type 'fix32.-0'" apply hostile_base.ir hostile_signed_frac.types
expect_refusal "line 1: bad type 'fix32.-0'" check hostile_base.ir --assignment hostile_signed_frac.types

# Assignment text: a line is exactly `TARGET TYPE`, and each target is
# assigned once.
printf '@a fix32.27 junk\n' > hostile_trailing.types
printf '@a fix32.27\n@a binary32\n' > hostile_repeated.types
expect_refusal "line 1: unexpected 'junk' after the type" apply hostile_base.ir hostile_trailing.types
expect_refusal "line 1: unexpected 'junk' after the type" check hostile_base.ir --assignment hostile_trailing.types
expect_refusal "line 2: @a is already assigned on line 1" apply hostile_base.ir hostile_repeated.types
expect_refusal "line 2: @a is already assigned on line 1" check hostile_base.ir --assignment hostile_repeated.types

# A format that parses (Table I's binary128, for the IEBW metric) but that
# no engine can execute is refused by name on every verb that loads a file.
printf '@a binary128\n' > hostile_wide.types
expect_refusal "line 1: format 'binary128' cannot execute" apply hostile_base.ir hostile_wide.types
for verb in check lint profile; do
  expect_refusal "line 1: format 'binary128' cannot execute" $verb hostile_base.ir --assignment hostile_wide.types
done

# Kernel language: number literals are read whole and in range, and a bad
# one is reported at its file:line:col.
cat > hostile_base.lk <<'EOF'
kernel k {
  array a[4] range [0.0, 1.0];
  scalar s range [0.0, 1.0];
  s = 0.5;
  a[0] = s;
}
EOF
"$L" compile hostile_base.lk > /dev/null ||
  { echo "hostile_base.lk does not compile"; failed=1; }

# mutate_lk NAME SED-SCRIPT: hostile_NAME.lk is the base with one edit.
mutate_lk() {
  sed "$2" hostile_base.lk > "hostile_$1.lk"
  cmp -s hostile_base.lk "hostile_$1.lk" && { echo "mutation $1 changed nothing"; failed=1; }
}

mutate_lk bare_exponent 's/s = 0.5;/s = 1e;/'
expect_refusal "hostile_bare_exponent.lk:4:7: malformed or out-of-range number '1e'" compile hostile_bare_exponent.lk

mutate_lk signed_bare_exponent 's/s = 0.5;/s = 2.5e+;/'
expect_refusal "hostile_signed_bare_exponent.lk:4:7: malformed or out-of-range number '2.5e+'" compile hostile_signed_bare_exponent.lk

mutate_lk huge_real 's/s = 0.5;/s = 1e999;/'
expect_refusal "hostile_huge_real.lk:4:7: malformed or out-of-range number '1e999'" compile hostile_huge_real.lk

mutate_lk huge_index 's/a\[0\] = s;/a[99999999999999999999] = s;/'
expect_refusal "hostile_huge_index.lk:5:5: malformed or out-of-range number '99999999999999999999'" compile hostile_huge_index.lk

# Op-time tables (--platform-file): each line is exactly `machine NAME` or
# `OP TYPE VALUE` with a finite value > 0, and every Table II entry must be
# there; a refusal names FILE:LINE:COL. The base is Table II's Stm32 column.
cat > hostile_base.optime <<'EOF'
machine Stm32
add fix 1.24
add float 2.33
add double 2.72
sub fix 1.24
sub float 2.33
sub double 2.72
mul fix 1.62
mul float 2.65
mul double 4.02
div fix 5.30
div float 5.60
div double 18.33
rem fix 1.39
rem float 27.01
rem double 152.35
cast_fix fix 1.00
cast_fix float 7.63
cast_fix double 20.89
cast_float fix 4.28
cast_float double 1.63
cast_double fix 5.65
cast_double float 1.79
EOF
"$L" tune hostile_base.ir --platform-file hostile_base.optime > /dev/null ||
  { echo "hostile_base.optime does not load"; failed=1; }

# mutate_optime NAME SED-SCRIPT: hostile_NAME.optime is the base with one edit.
mutate_optime() {
  sed "$2" hostile_base.optime > "hostile_$1.optime"
  cmp -s hostile_base.optime "hostile_$1.optime" && { echo "mutation $1 changed nothing"; failed=1; }
}

mutate_optime junk_value 's/^add fix 1.24$/add fix 1.2junk/'
for verb in tune lint check profile; do
  expect_refusal "hostile_junk_value.optime:2:9: op-time must be a finite number > 0, got '1.2junk'" $verb hostile_base.ir --platform-file hostile_junk_value.optime
done

mutate_optime nan_value 's/^add fix 1.24$/add fix nan/'
expect_refusal "hostile_nan_value.optime:2:9: op-time must be a finite number > 0, got 'nan'" tune hostile_base.ir --platform-file hostile_nan_value.optime

mutate_optime negative_value 's/^add fix 1.24$/add fix -5/'
expect_refusal "hostile_negative_value.optime:2:9: op-time must be a finite number > 0, got '-5'" tune hostile_base.ir --platform-file hostile_negative_value.optime

mutate_optime repeated_entry 's/^add float 2.33$/add fix 2.33/'
expect_refusal "hostile_repeated_entry.optime:3:1: repeated entry 'add fix'" tune hostile_base.ir --platform-file hostile_repeated_entry.optime

mutate_optime no_div_float '/^div float /d'
expect_refusal "hostile_no_div_float.optime:23:1: missing entry 'div float'" tune hostile_base.ir --platform-file hostile_no_div_float.optime

mutate_optime no_cast_fix_double '/^cast_fix double /d'
expect_refusal "hostile_no_cast_fix_double.optime:23:1: missing entry 'cast_fix double'" tune hostile_base.ir --platform-file hostile_no_cast_fix_double.optime

# A table file that cannot be read fails like an unreadable IR file.
for verb in tune lint check profile; do
  expect_refusal "cannot read hostile_missing.optime" $verb hostile_base.ir --platform-file hostile_missing.optime
done

# A replayed fuzz corpus whose .lp seed has crossed or NaN bounds, or a
# non-finite coefficient or right-hand side: the replay names the file,
# line and column on stdout and exits 1 instead of aborting.
# expect_corpus_refusal NAME MESSAGE LP-TEXT (printf format)
expect_corpus_refusal() {
  mkdir -p "hostile_corpus_$1"
  printf "$3" > "hostile_corpus_$1/seed.lp"
  "$L" fuzz --corpus "hostile_corpus_$1" --trials 0 > hostile.out 2> hostile.err
  status=$?
  if [ "$status" -ne 1 ] || ! grep -q -- "$2" hostile.out; then
    echo "luis fuzz --corpus hostile_corpus_$1 exited $status (want 1 and '$2'); stdout:"
    cat hostile.out
    failed=1
  fi
}
expect_corpus_refusal crossed "line 6, column 2: crossed bounds: lower 3 is above upper 1" \
  'Minimize\n obj: x\nSubject To\n c: x >= 0\nBounds\n 3 <= x <= 1\nGeneral\n x\nEnd\n'
expect_corpus_refusal nan_bound "line 6, column 2: lower bound must be a number or -inf, got 'nan'" \
  'Minimize\n obj: x\nSubject To\n c: x >= 0\nBounds\n nan <= x <= 1\nGeneral\n x\nEnd\n'
expect_corpus_refusal nan_coefficient "line 2, column 7: coefficient must be finite, got 'nan'" \
  'Minimize\n obj: nan x\nSubject To\n c: x >= 0\nBounds\n 0 <= x <= 1\nGeneral\n x\nEnd\n'
expect_corpus_refusal inf_rhs "line 4, column 10: right-hand side must be a finite number, got 'inf'" \
  'Minimize\n obj: x\nSubject To\n c: x >= inf\nBounds\n 0 <= x <= 1\nGeneral\n x\nEnd\n'

# An unknown platform name is a usage error (2), not a malformed file.
"$L" tune hostile_base.ir --platform Nowhere > /dev/null 2>&1
status=$?
[ "$status" -eq 2 ] || { echo "unknown platform exited $status (want 2)"; failed=1; }

exit $failed
