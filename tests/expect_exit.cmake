# Runs COMMAND (arguments separated by '|') and fails unless it exits
# with exactly EXPECT. ctest's own pass/fail only tells zero from
# nonzero; tools whose exit codes are a contract need the exact value.
#
#   cmake -DEXPECT=2 "-DCOMMAND=tool|arg1|arg2" -P expect_exit.cmake
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command} RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT "${code}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECT}")
endif()
