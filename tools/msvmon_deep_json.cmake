# msvmon must reject a hostile, deeply nested input with its parse-error
# status (2) rather than crash: the JSON reader bounds its nesting depth.
#
#   cmake -DMSVMON=<msvmon binary> -DWORK_DIR=<scratch dir> \
#         -P tools/msvmon_deep_json.cmake
set(depth 200000)
string(REPEAT "[" ${depth} open)
string(REPEAT "]" ${depth} close)
set(input "${WORK_DIR}/msvmon_deep.json")
file(WRITE "${input}" "${open}${close}")
foreach(mode postmortem health)
  execute_process(COMMAND "${MSVMON}" --${mode}=${input}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR
            "msvmon --${mode} on a ${depth}-deep [[...]] file: exit '${rc}', "
            "expected 2 (parse error)")
  endif()
endforeach()
file(REMOVE "${input}")
