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
if(EXISTS ${WORK_DIR}/never.csv OR EXISTS ${WORK_DIR}/never.txt)
  message(FATAL_ERROR "a rejected --jobs value still wrote an output file")
endif()
