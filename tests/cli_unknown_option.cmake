# `qif run` must reject options it does not read instead of silently
# ignoring them: a retired option (lanes), a truncated one (lane) and a
# misspelled one (mitigat) each exit 1 with
# `error: run: unknown option '--NAME'`, before any simulation runs.
file(MAKE_DIRECTORY ${WORK_DIR})

foreach(case "lanes;4" "lane;4" "mitigat;token")
  list(GET case 0 name)
  list(GET case 1 value)
  execute_process(COMMAND ${QIF_CLI} run ior-easy-write --${name} ${value}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "`qif run ior-easy-write --${name} ${value}` exited ${rc}, "
                        "expected 1\n${out}\n${err}")
  endif()
  string(FIND "${err}" "error: run: unknown option '--${name}'" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "`qif run ior-easy-write --${name} ${value}` failed without "
                        "naming the option:\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "`qif run --${name}` ran a scenario before rejecting:\n${out}")
  endif()
endforeach()

# A trailing option with no value is an error too, not a stray positional.
foreach(case "noise;option '--noise' needs a value" "mitigat;unknown option '--mitigat'")
  list(GET case 0 name)
  list(GET case 1 expect)
  execute_process(COMMAND ${QIF_CLI} run ior-easy-write --${name}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "error: run: ${expect}" found)
  if(NOT rc EQUAL 1 OR found EQUAL -1)
    message(FATAL_ERROR "`qif run ior-easy-write --${name}` (no value) exited ${rc} "
                        "without 'error: run: ${expect}':\n${out}\n${err}")
  endif()
endforeach()

# An option given twice is an error, not last-one-wins: `--ranks 1 --ranks 3`
# must not quietly write a 3-rank program.  Flags count too.
foreach(case "ranks;workloads;export;ior-easy-write;--ranks;1;--ranks;3;--out;twice.qwp"
             "json;campaign;amrex;--json;--json;--out;twice.csv")
  list(POP_FRONT case name)
  list(GET case 0 cmd)
  execute_process(COMMAND ${QIF_CLI} ${case}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "error: ${cmd}: option '--${name}' given twice" found)
  string(REPLACE ";" " " shown "${case}")
  if(NOT rc EQUAL 1 OR found EQUAL -1)
    message(FATAL_ERROR "`qif ${shown}` exited ${rc} without "
                        "'error: ${cmd}: option '--${name}' given twice':\n${out}\n${err}")
  endif()
endforeach()
if(EXISTS ${WORK_DIR}/twice.qwp OR EXISTS ${WORK_DIR}/twice.csv)
  message(FATAL_ERROR "a repeated option still wrote an output file")
endif()
