# msvlint must reject a malformed flag with its usage status (2) and a
# message naming the flag, never read a bad number as 0. CASE is
# non_numeric, trailing_garbage, negative or json_v1 (a retired switch).
#
#   cmake -DMSVLINT=<msvlint binary> -DCASE=<case> \
#         -P tools/msvlint_bad_flags.cmake
set(non_numeric --synthetic=abc --plan-seed=xyz --min-gain=abc
                --untrusted-fraction=half --secret-fraction=)
set(trailing_garbage --synthetic=12x --plan-seed=7z --min-gain=0.5%
                     --untrusted-fraction=0.5.1 --secret-fraction=0.25f)
set(negative --synthetic=-5)
set(json_v1 --json-v1)
if(NOT DEFINED ${CASE})
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
foreach(flag ${${CASE}})
  string(REGEX REPLACE "=.*" "" name "${flag}")
  execute_process(COMMAND "${MSVLINT}" --bank "${flag}" --quiet
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${name}" at)
  if(NOT rc STREQUAL "2" OR at EQUAL -1)
    message(FATAL_ERROR "msvlint ${flag}: exit '${rc}', expected 2 with "
                        "a message naming ${name}; stderr:\n${err}")
  endif()
endforeach()
