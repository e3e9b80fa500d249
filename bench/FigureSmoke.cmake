# Runs one figure binary (-DBIN=path) and fails unless it exits 0 and
# prints a figure table ("## <caption>" line). A pass regex alone would
# ignore the exit code, so a crash after the table would still pass.
execute_process(COMMAND ${BIN} RESULT_VARIABLE Rc OUTPUT_VARIABLE Out
                ERROR_VARIABLE Out)
message("${Out}")
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited ${Rc}")
endif()
if(NOT Out MATCHES "(^|\n)## ")
  message(FATAL_ERROR "${BIN} printed no figure table")
endif()
