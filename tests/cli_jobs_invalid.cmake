# `--jobs` must be a whole positive integer on `qif campaign` and
# `qif train`: anything else exits non-zero with a message that names the
# option and the offending value, before any simulation or training runs
# (atoi used to turn each of these into a clamped one-worker pool).
file(MAKE_DIRECTORY ${WORK_DIR})

foreach(value zero 0 -2 3x)
  foreach(cmd "campaign;amrex;--out;never.csv" "train;--data;missing.qds;--out;never.txt")
    execute_process(COMMAND ${QIF_CLI} ${cmd} --jobs ${value}
                    WORKING_DIRECTORY ${WORK_DIR}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    string(REPLACE ";" " " shown "${cmd}")
    if(rc EQUAL 0)
      message(FATAL_ERROR "`qif ${shown} --jobs ${value}` unexpectedly succeeded\n${out}")
    endif()
    string(FIND "${err}" "--jobs" has_option)
    string(FIND "${err}" "'${value}'" has_value)
    if(has_option EQUAL -1 OR has_value EQUAL -1)
      message(FATAL_ERROR
              "`qif ${shown} --jobs ${value}` failed without naming --jobs '${value}':\n${err}")
    endif()
  endforeach()
endforeach()

# Every other numeric option is checked the same way: the whole value must
# parse and meet the option's minimum, or the command exits 1 naming the
# option and the value (atoi/atof used to coerce each of these into a run).
function(expect_rejected option value)
  execute_process(COMMAND ${QIF_CLI} ${ARGN} --${option} ${value}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REPLACE ";" " " shown "${ARGN} --${option} ${value}")
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "`qif ${shown}` exited ${rc}, expected 1\n${out}\n${err}")
  endif()
  string(FIND "${err}" "--${option}" has_option)
  string(FIND "${err}" "'${value}'" has_value)
  if(has_option EQUAL -1 OR has_value EQUAL -1)
    message(FATAL_ERROR "`qif ${shown}` failed without naming --${option} '${value}':\n${err}")
  endif()
endfunction()
foreach(value abc 0 -1 inf nan 1.5x)
  expect_rejected(scale ${value} run ior-easy-write)
  expect_rejected(richness ${value} campaign amrex --out never.csv)
endforeach()
foreach(value 0 -3 2.5 many)
  expect_rejected(epochs ${value} train --data missing.qds --out never.txt)
  expect_rejected(instances ${value} run ior-easy-write --noise ior-easy-write)
endforeach()
foreach(value 1 0 -2 two)
  expect_rejected(classes ${value} train --data missing.qds --out never.txt)
endforeach()
foreach(value 3 5 2,3 2,5,8 x)
  expect_rejected(bins ${value} campaign amrex --out never.csv)
endforeach()
# --seed is a whole unsigned 64-bit integer on every command that takes
# one: a sign, junk or a value past 2^64-1 exits 1 naming it (-5 must not
# wrap to 2^64-5), and a seed past INT_MAX is accepted.
foreach(value -5 +5 7x 18446744073709551616)
  expect_rejected(seed ${value} workloads export ior-easy-write --out never.qwp)
  expect_rejected(seed ${value} run ior-easy-write)
  expect_rejected(seed ${value} campaign amrex --out never.csv)
  expect_rejected(seed ${value} dump-trace ior-easy-write --out never.txt)
  expect_rejected(seed ${value} serve verify)
endforeach()
foreach(value 4294967291 18446744073709551615)
  execute_process(COMMAND ${QIF_CLI} workloads export ior-easy-write --seed ${value}
                          --out seed.qwp
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "`qif workloads export --seed ${value}` exited ${rc}:\n${out}\n${err}")
  endif()
endforeach()
if(EXISTS ${WORK_DIR}/never.csv OR EXISTS ${WORK_DIR}/never.txt
   OR EXISTS ${WORK_DIR}/never.qwp)
  message(FATAL_ERROR "a rejected option value still wrote an output file")
endif()

# `qif train --out` into a directory that does not exist fails after
# training, naming the path, instead of reporting a save that never happened.
execute_process(COMMAND ${QIF_CLI} campaign amrex --richness 0.1 --out tiny.csv
                WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not build the tiny training dataset (${rc})")
endif()
execute_process(COMMAND ${QIF_CLI} train --data tiny.csv --out no/such/dir/m.qifm --epochs 1
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "cannot open no/such/dir/m.qifm for writing" named)
if(NOT rc EQUAL 1 OR named EQUAL -1)
  message(FATAL_ERROR "`qif train --out no/such/dir/m.qifm` exited ${rc}:\n${out}\n${err}")
endif()

# `qif dump-trace --out` checks its file the same way: an unopenable path
# fails naming it instead of reporting records that were never written.
execute_process(COMMAND ${QIF_CLI} dump-trace ior-easy-write --scale 0.1
                        --out no/such/dir/t.dxt
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "cannot open no/such/dir/t.dxt for writing" named)
string(FIND "${out}" "wrote" claimed)
if(NOT rc EQUAL 1 OR named EQUAL -1 OR NOT claimed EQUAL -1)
  message(FATAL_ERROR "`qif dump-trace --out no/such/dir/t.dxt` exited ${rc}:\n${out}\n${err}")
endif()
