# Runs COMMAND (arguments separated by '|') and fails unless it exits
# with exactly EXPECT. ctest's own pass/fail only tells zero from
# nonzero; tools whose exit codes are a contract need the exact value.
# EXPECT=fail accepts any failure, a signal included. MATCH, when set,
# is a regular expression the combined output must contain.
#
#   cmake -DEXPECT=2 "-DCOMMAND=tool|arg1|arg2" -P expect_exit.cmake
#   cmake -DEXPECT=fail -DMATCH=--cache "-DCOMMAND=tool|--cache|-1" \
#         -P expect_exit.cmake
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command} RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if("${EXPECT}" STREQUAL "fail")
  if("${code}" STREQUAL "0")
    message(FATAL_ERROR "exit code 0, expected a failure")
  endif()
elseif(NOT "${code}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECT}")
endif()
if(DEFINED MATCH AND NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not contain '${MATCH}'")
endif()
