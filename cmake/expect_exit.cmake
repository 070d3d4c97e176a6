# Run CMD ('|'-separated) and fail unless it exits with status EXPECT.
#   cmake -DEXPECT=1 "-DCMD=prog|arg1|arg2" -P expect_exit.cmake
string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT "${rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT}: ${CMD}")
endif()
