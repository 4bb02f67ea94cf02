<?php
include "lib.php";
$user = $_GET['user'];
echo greet($user);
$id = (int) $_GET['id'];
echo "<p>" . $id . "</p>";
