let poll_available = true
